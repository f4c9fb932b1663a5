package kvserver

import (
	"bufio"
	"net"
	"strings"
	"testing"

	"camp/internal/persist"
)

// gateCase is one command line (plus its data block) the gate test sends.
type gateCase struct {
	line, payload string
	valid         bool
	// want is the exact client error when known ("" when only the class is).
	want string
	// noreply says the line may carry a trailing noreply.
	noreply bool
}

// mutationGateCases derives the gate cases of one keyed-mutation row from its
// grammar alone, so a new row is walked without editing the test: a valid
// command, a NUL in the key, one argument too many and — when the row has
// arguments — a malformed first argument.
func mutationGateCases(cmd *command) []gateCase {
	name := cmd.name
	args := func(key string, n int, first string) string {
		line := name + " " + key
		for i := 0; i < n; i++ {
			if i == 0 && first != "" {
				line += " " + first
			} else {
				line += " 1"
			}
		}
		return line
	}
	payload := ""
	badKey := "CLIENT_ERROR bad key"
	if cmd.payload {
		// Every numeric argument is 1, the data-block length among them.
		payload = "1\r\n"
		badKey = "CLIENT_ERROR bad " + name + " key"
	}
	cases := []gateCase{
		{line: args("gate", cmd.minArgs, ""), valid: true},
		{line: args("bad\x00key", cmd.minArgs, ""), want: badKey},
		{line: args("gate", cmd.maxArgs+1, ""), want: "CLIENT_ERROR bad " + name + " command"},
	}
	if cmd.maxArgs > 0 {
		cases = append(cases, gateCase{line: args("gate", cmd.minArgs, "x")})
	}
	for i := range cases {
		cases[i].payload, cases[i].noreply = payload, true
	}
	return cases
}

// TestMutationGateOrder walks every keyed-mutation row of the verb table
// through {primary, replica} × {valid, NUL key, bad arity, bad argument} ×
// {reply, noreply}. A malformed command is the same client error on both
// roles — grammar is checked before the replica gate, so a replica never
// leaks its role to one — only a valid command meets the read-only refusal,
// and noreply silences every reply. Each case is followed by "version" on the
// same connection, so a data block drained wrongly shows up as a wrong reply.
// flush_all, a keyless handle row, gets the same walk from hand-written cases.
func TestMutationGateOrder(t *testing.T) {
	p := startServer(t, Config{
		MemoryBytes: 1 << 20,
		Policy:      "camp",
		DisableIQ:   true,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	})
	f := startReplica(t, p, Config{MemoryBytes: 1 << 20, Policy: "camp", DisableIQ: true})
	waitCaughtUp(t, p, f)

	var cases []gateCase
	for i := range commands {
		if cmd := &commands[i]; cmd.body != nil {
			cases = append(cases, mutationGateCases(cmd)...)
		}
	}
	badFlush := strings.TrimSuffix(string(replyBadFlush), "\r\n")
	cases = append(cases,
		gateCase{line: "flush_all junk", want: badFlush},
		gateCase{line: "flush_all all x", want: badFlush},
		gateCase{line: "flush_all noreply", want: badFlush},
		gateCase{line: "flush_all", valid: true},
		gateCase{line: "flush_all all", valid: true},
	)

	roles := []struct {
		name string
		conn net.Conn
		r    *bufio.Reader
	}{{name: "primary"}, {name: "replica"}}
	for i, s := range []*Server{p, f} {
		roles[i].conn = rawDial(t, s)
		defer roles[i].conn.Close()
		roles[i].r = bufio.NewReader(roles[i].conn)
	}
	for _, tc := range cases {
		lines := []string{tc.line}
		if tc.noreply {
			lines = append(lines, tc.line+" noreply")
		}
		for _, line := range lines {
			noreply := line != tc.line
			var primaryReply string
			for _, role := range roles {
				got := gateRoundTrip(t, role.conn, role.r, line, tc.payload)
				t.Logf("%s %q -> %q", role.name, line, got)
				switch {
				case noreply:
					if got != "" {
						t.Errorf("%s %q: got %q, want silence", role.name, line, got)
					}
				case tc.valid && role.name == "replica":
					if got != strings.TrimSuffix(string(replyReadOnly), "\r\n") {
						t.Errorf("replica %q: got %q, want the read-only refusal", line, got)
					}
				case tc.valid:
					if strings.Contains(got, "ERROR") {
						t.Errorf("primary %q: got %q, want success", line, got)
					}
				case !strings.HasPrefix(got, "CLIENT_ERROR"), tc.want != "" && got != tc.want:
					t.Errorf("%s %q: got %q, want client error %q", role.name, line, got, tc.want)
				case role.name == "primary":
					primaryReply = got
				case got != primaryReply:
					t.Errorf("replica %q: got %q, primary answered %q", line, got, primaryReply)
				}
			}
		}
	}
}

// gateRoundTrip sends one command and its data block, then "version", and
// returns the command's reply line ("" when it sent none). The version reply
// must come next, or the stream lost alignment.
func gateRoundTrip(t *testing.T, conn net.Conn, r *bufio.Reader, line, payload string) string {
	t.Helper()
	if _, err := conn.Write([]byte(line + "\r\n" + payload + "version\r\n")); err != nil {
		t.Fatal(err)
	}
	readLine := func() string {
		s, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		return strings.TrimSuffix(s, "\r\n")
	}
	version := strings.TrimSuffix(string(replyVersion), "\r\n")
	got := readLine()
	if got == version {
		return ""
	}
	if v := readLine(); v != version {
		t.Fatalf("%q: reply %q then %q, want %q", line, got, v, version)
	}
	return got
}

// TestDeleteExpiredKey pins delete's expiry check: a key whose TTL has passed
// is absent to delete as it is to get — NOT_FOUND, one expired_reclaimed, and
// no journal record.
func TestDeleteExpiredKey(t *testing.T) {
	s := startServer(t, Config{
		MemoryBytes: 1 << 20,
		Persist:     &PersistConfig{Dir: t.TempDir(), Fsync: persist.FsyncNo, Logf: t.Logf},
	})
	conn := rawDial(t, s)
	defer conn.Close()
	r := bufio.NewReader(conn)
	if got := gateRoundTrip(t, conn, r, "set k 0 -1 1", "v\r\n"); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	journal := s.shards[0].mgr.Info().AOFSize
	if got := gateRoundTrip(t, conn, r, "delete k", ""); got != "NOT_FOUND" {
		t.Fatalf("delete of an expired key = %q, want NOT_FOUND", got)
	}
	if got := gateRoundTrip(t, conn, r, "get k", ""); got != "END" {
		t.Fatalf("get after delete = %q, want END", got)
	}
	if n := s.shards[0].mgr.Info().AOFSize; n != journal {
		t.Errorf("journal grew %d -> %d bytes: an expired key's delete was journaled", journal, n)
	}
	c := dial(t, s)
	stats, err := c.Stats("stats")
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["expired_reclaimed"]; got != "1" {
		t.Errorf("expired_reclaimed = %s, want 1", got)
	}
}
