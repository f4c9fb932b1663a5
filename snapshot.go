package camp

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"

	"camp/internal/cache"
	"camp/internal/persist"
)

// WriteSnapshot serializes every cached entry — key, value, charged size and
// recomputation cost — to w in the internal/persist snapshot format (v2).
// Entries are written in eviction order, and for the priority policies
// (CAMP, GDS) each record carries the entry's exact priority offset, so a
// warm start reproduces the live eviction schedule exactly — cross-queue,
// even after eviction churn. Shards are locked one at a time, so concurrent
// writers may land between shards; the result is a consistent warm-start
// image, not a point-in-time fence.
func (c *Cache) WriteSnapshot(w io.Writer) error {
	sw, err := persist.NewSnapshotWriter(w)
	if err != nil {
		return err
	}
	if err := c.emitEntries(sw.Write); err != nil {
		return err
	}
	return sw.Flush()
}

// emitEntries streams every cached entry to write, one shard at a time, each
// shard in eviction order (next victim first) with priority offsets when the
// policy exports them.
func (c *Cache) emitEntries(write func(persist.Op) error) error {
	for _, s := range c.shards {
		s.mu.Lock()
		err := s.emitLocked(write)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// emitLocked writes one shard's entries. The caller holds s.mu.
func (s *shard) emitLocked(write func(persist.Op) error) error {
	// The adaptive scale first, so a replay buckets later Sets with the live
	// workload's learned state.
	if scale, ok := s.policy.Scale(); ok {
		if err := write(persist.Op{Kind: persist.KindScale, Scale: scale}); err != nil {
			return err
		}
	}
	kind := persist.KindSet
	if s.policy.Prioritized() {
		kind = persist.KindSetPrio
	}
	var err error
	s.policy.Visit(func(n *cache.Node, prio, class uint64) bool {
		key := s.policy.Key(n)
		err = write(persist.Op{
			Kind:     kind,
			Key:      key,
			Value:    s.values[key],
			Size:     n.Size,
			Cost:     n.Cost,
			Priority: prio,
			Class:    class,
		})
		return err == nil
	})
	return err
}

// SaveSnapshot atomically writes a snapshot to the path configured with
// WithSnapshotFile (temp file, fsync, rename). It returns the number of
// entries written.
func (c *Cache) SaveSnapshot() (int, error) {
	if c.snapPath == "" {
		return 0, errors.New("camp: no snapshot path configured (use WithSnapshotFile)")
	}
	return c.SaveSnapshotTo(c.snapPath)
}

// SaveSnapshotTo is SaveSnapshot with an explicit destination path.
func (c *Cache) SaveSnapshotTo(path string) (int, error) {
	return persist.WriteSnapshotFile(path, c.emitEntries)
}

// LoadSnapshot reads a snapshot stream and re-admits its entries through the
// configured eviction policy, rebuilding queue/heap state with the original
// costs — and, from a v2 snapshot into a priority policy, the original
// priority offsets, so the restored eviction schedule matches the saved one
// exactly. It returns how many entries the policy admitted. A corrupt or
// newer-versioned snapshot is refused with an error and no further entries
// are applied.
func (c *Cache) LoadSnapshot(r io.Reader) (int, error) {
	admitted := 0
	_, err := persist.ReadSnapshot(r, func(op persist.Op) error {
		switch op.Kind {
		case persist.KindPosition:
			return nil // server-side replication bookkeeping; not an entry
		case persist.KindScale:
			// Shard routing is seeded per process, so the scale cannot be
			// re-aimed at the shard that wrote it; it only widens, so
			// every shard absorbing every scale record is safe (and exact
			// for the single-shard default).
			for _, s := range c.shards {
				s.mu.Lock()
				s.policy.RestoreScale(op.Scale)
				s.mu.Unlock()
			}
			return nil
		}
		if c.setFromSnapshot(op) {
			admitted++
		}
		return nil
	})
	return admitted, err
}

// setFromSnapshot is SetSized with the snapshot's recorded priority pinned
// when both the record and the policy carry one.
func (c *Cache) setFromSnapshot(op persist.Op) bool {
	// The decoded key aliases the record's buffer, value included: the index
	// keeps a key past an overwrite of its value, so it keeps a copy.
	op.Key = strings.Clone(op.Key)
	cost := op.Cost
	if cost <= 0 {
		cost = c.defCost
	}
	s := c.shardFor(op.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	var ok bool
	if op.Kind == persist.KindSetPrio {
		ok = s.policy.SetWithPriority(op.Key, op.Size, cost, op.Priority, op.Class)
	} else {
		ok = s.policy.Set(op.Key, op.Size, cost)
	}
	if !ok {
		// The policy may have dropped a previous version of the entry on a
		// failed re-admit; keep the value map in sync (as SetSized does).
		if !s.policy.Contains(op.Key) {
			delete(s.values, op.Key)
		}
		return false
	}
	s.values[op.Key] = op.Value
	return true
}

// loadSnapshotFile warm-starts the cache from path at construction time. A
// missing file is a cold start, not an error.
func (c *Cache) loadSnapshotFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("camp: open snapshot: %w", err)
	}
	defer f.Close()
	if _, err := c.LoadSnapshot(f); err != nil {
		return fmt.Errorf("camp: snapshot %s: %w", path, err)
	}
	return nil
}
