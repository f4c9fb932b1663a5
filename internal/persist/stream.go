package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Replication stream frame kinds. After the text handshake (see
// internal/kvserver's replconf/sync grammar) the primary sends a binary frame
// stream: journal records exactly as they sit in the segment files,
// generation switches when compaction retires a segment, and pings so both
// ends can detect a dead peer while the journal is idle.
const (
	// FrameRecord carries one journal record, byte-identical to its on-disk
	// encoding (length, CRC, payload): the follower's offset accounting adds
	// the frame's Bytes to mirror the primary's file position.
	FrameRecord byte = 'R'
	// FrameGen announces that subsequent records belong to segment Gen,
	// starting at SegmentHeaderLen.
	FrameGen byte = 'G'
	// FramePing is a keepalive carrying nothing.
	FramePing byte = 'P'
)

// Frame is one decoded replication stream frame. Op and Bytes are valid for
// FrameRecord; Gen for FrameGen.
type Frame struct {
	Kind  byte
	Op    Op
	Bytes int64
	Gen   uint64
}

// StreamWriter encodes replication frames onto a buffered writer. The caller
// owns flushing (batching frames per flush keeps the feed cheap).
type StreamWriter struct {
	w   *bufio.Writer
	buf [9]byte
}

// NewStreamWriter wraps w.
func NewStreamWriter(w *bufio.Writer) *StreamWriter {
	return &StreamWriter{w: w}
}

// Record writes a record frame. raw must be one complete encoded record (as
// returned by AppendRecord or a TailEvent).
func (sw *StreamWriter) Record(raw []byte) error {
	if err := sw.w.WriteByte(FrameRecord); err != nil {
		return err
	}
	_, err := sw.w.Write(raw)
	return err
}

// GenSwitch writes a generation-switch frame.
func (sw *StreamWriter) GenSwitch(gen uint64) error {
	sw.buf[0] = FrameGen
	binary.LittleEndian.PutUint64(sw.buf[1:], gen)
	_, err := sw.w.Write(sw.buf[:])
	return err
}

// Ping writes a keepalive frame.
func (sw *StreamWriter) Ping() error {
	return sw.w.WriteByte(FramePing)
}

// Flush drains the underlying buffered writer.
func (sw *StreamWriter) Flush() error {
	return sw.w.Flush()
}

// StreamReader decodes replication frames from a buffered reader, validating
// every record's framing, checksum and payload structure before handing it to
// the caller — a malformed or truncated stream surfaces as ErrCorruptRecord
// (or an io error), never as a panic or a bad op applied downstream.
type StreamReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewStreamReader wraps r.
func NewStreamReader(r *bufio.Reader) *StreamReader {
	return &StreamReader{r: r}
}

// Next decodes one frame. io.EOF is returned only at a clean frame boundary;
// a stream ending mid-frame is io.ErrUnexpectedEOF.
func (sr *StreamReader) Next() (Frame, error) {
	kind, err := sr.r.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	switch kind {
	case FramePing:
		return Frame{Kind: FramePing}, nil
	case FrameGen:
		var b [8]byte
		if _, err := io.ReadFull(sr.r, b[:]); err != nil {
			return Frame{}, noEOF(err)
		}
		gen := binary.LittleEndian.Uint64(b[:])
		if gen == 0 {
			return Frame{}, fmt.Errorf("%w: generation-switch to 0", ErrCorruptRecord)
		}
		return Frame{Kind: FrameGen, Gen: gen}, nil
	case FrameRecord:
		if cap(sr.buf) < recordHeaderLen {
			sr.buf = make([]byte, 0, 64<<10)
		}
		hdr := sr.buf[:recordHeaderLen]
		if _, err := io.ReadFull(sr.r, hdr); err != nil {
			return Frame{}, noEOF(err)
		}
		n := binary.LittleEndian.Uint32(hdr)
		if n == 0 || n > maxPayload {
			return Frame{}, fmt.Errorf("%w: record frame payload length %d", ErrCorruptRecord, n)
		}
		total := recordHeaderLen + int(n)
		if cap(sr.buf) < total {
			grown := make([]byte, 0, total)
			sr.buf = append(grown, hdr...)
		}
		rec := sr.buf[:total]
		if _, err := io.ReadFull(sr.r, rec[recordHeaderLen:]); err != nil {
			return Frame{}, noEOF(err)
		}
		op, used, err := DecodeRecord(rec)
		if err != nil {
			return Frame{}, err
		}
		if used != total {
			return Frame{}, fmt.Errorf("%w: record frame length mismatch", ErrCorruptRecord)
		}
		return Frame{Kind: FrameRecord, Op: op, Bytes: int64(total)}, nil
	default:
		return Frame{}, fmt.Errorf("%w: unknown frame kind 0x%02x", ErrCorruptRecord, kind)
	}
}

// noEOF converts a bare EOF inside a frame into ErrUnexpectedEOF so callers
// never mistake a torn frame for a clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
