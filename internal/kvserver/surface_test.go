package kvserver

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"camp/internal/metrics"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/stats_surface.golden from live servers")

const surfaceGolden = "testdata/stats_surface.golden"

// TestStatsSurface pins every name the server reports, in five
// configurations: the STAT names of stats (sorted: its order is free),
// stats shards, stats tenants, stats latency and replica status (in reply
// order), and each /metrics family's HELP and TYPE lines and its sample
// names with labels. Values are not pinned. A new or renamed figure shows
// up as a diff of testdata/stats_surface.golden; regenerate it with
//
//	go test ./internal/kvserver -run TestStatsSurface -update
//
// and read the diff.
func TestStatsSurface(t *testing.T) {
	got := statsSurface(t)
	if *updateSurface {
		if err := os.WriteFile(surfaceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s line %d:\n got %q\nwant %q\n(rerun with -update and read the diff if the change is intended)",
				surfaceGolden, i+1, gl, wl)
		}
	}
}

// statsSurface boots the five configurations and renders their names. It
// also holds the registry to its promise that the family set is the same
// on every server, whatever its role, layout or persistence.
func statsSurface(t *testing.T) string {
	var b strings.Builder
	var firstTypes []string
	section := func(title string, s *Server) {
		fmt.Fprintf(&b, "== %s\n", title)
		main := surfaceStatNames(t, s, "stats")
		sort.Strings(main)
		surfaceBlock(&b, "stats (sorted)", main)
		for _, cmd := range []string{"stats shards", "stats tenants", "stats latency", "replica status"} {
			surfaceBlock(&b, cmd, surfaceStatNames(t, s, cmd))
		}
		names := surfaceMetricNames(t, s)
		surfaceBlock(&b, "/metrics", names)
		var types []string
		for _, n := range names {
			if strings.HasPrefix(n, "# TYPE ") {
				types = append(types, n)
			}
		}
		if firstTypes == nil {
			firstTypes = types
		} else if strings.Join(types, "\n") != strings.Join(firstTypes, "\n") {
			t.Errorf("%s: family set differs from the first server's", title)
		}
	}
	traffic := func(s *Server) {
		c := dial(t, s)
		if err := c.Set("k", []byte("v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get("k"); err != nil {
			t.Fatal(err)
		}
	}

	byteSrv := startServer(t, Config{MemoryBytes: 1 << 20, Shards: 2})
	traffic(byteSrv)
	section("byte, 2 shards", byteSrv)

	arena := startServer(t, Config{MemoryBytes: 1 << 20, Mode: ModeArena})
	traffic(arena)
	section("arena", arena)

	gds := startServer(t, Config{MemoryBytes: 1 << 20, Policy: "gds",
		TenantReserves: map[string]int64{"gold": 1 << 18}})
	traffic(gds)
	silver := dial(t, gds)
	if err := silver.Tenant("silver"); err != nil {
		t.Fatal(err)
	}
	if err := silver.Set("k", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	section("gds, reserved tenant gold + tenant silver", gds)

	primary := startServer(t, Config{MemoryBytes: 1 << 20, Shards: 2,
		Persist: &PersistConfig{Dir: t.TempDir()}})
	follower := startReplica(t, primary, Config{MemoryBytes: 1 << 20, Shards: 2,
		Persist: &PersistConfig{Dir: t.TempDir()}})
	traffic(primary)
	waitCaughtUp(t, primary, follower)
	section("persisted primary, 2 shards, follower attached", primary)
	section("its follower", follower)
	return b.String()
}

func surfaceBlock(b *strings.Builder, title string, lines []string) {
	fmt.Fprintf(b, "-- %s\n", title)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

// surfaceStatNames sends one command and returns the names of its STAT
// lines in reply order.
func surfaceStatNames(t *testing.T, s *Server, cmd string) []string {
	t.Helper()
	conn := rawDial(t, s)
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s\r\n", cmd); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var names []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			return names
		}
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "STAT" {
			t.Fatalf("%s: unexpected line %q", cmd, line)
		}
		names = append(names, f[1])
	}
}

var (
	// Which shard's feed registers first is a race, so feed numbers are not
	// names; a histogram's bucket bounds belong to internal/metrics.
	feedLabel = regexp.MustCompile(`feed="[0-9]+"`)
	leLabel   = regexp.MustCompile(`le="[^"]*"`)
)

// surfaceMetricNames renders the registry as HELP and TYPE lines plus the
// distinct sample names with labels, families sorted by name.
func surfaceMetricNames(t *testing.T, s *Server) []string {
	t.Helper()
	var sb strings.Builder
	if err := s.metrics.registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	header := map[string][]string{}
	samples := map[string]map[string]bool{}
	var fam string
	for _, line := range strings.Split(sb.String(), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE "):
			fam = strings.Fields(line)[2]
			header[fam] = append(header[fam], line)
			if samples[fam] == nil {
				samples[fam] = map[string]bool{}
			}
		default:
			name := line[:strings.LastIndexByte(line, ' ')]
			name = feedLabel.ReplaceAllString(name, `feed="N"`)
			samples[fam][leLabel.ReplaceAllString(name, "le")] = true
		}
	}
	fams := make([]string, 0, len(header))
	for f := range header {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	var out []string
	for _, f := range fams {
		out = append(out, header[f]...)
		names := make([]string, 0, len(samples[f]))
		for n := range samples[f] {
			names = append(names, n)
		}
		sort.Strings(names)
		out = append(out, names...)
	}
	return out
}

// goldenBlock returns one block of one section of the surface golden: the
// lines under "-- <block>" in "== <section>".
func goldenBlock(t *testing.T, section, name string) []string {
	t.Helper()
	data, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	inSection, inBlock := false, false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			inSection, inBlock = line == "== "+section, false
		case strings.HasPrefix(line, "-- "):
			inBlock = inSection && line == "-- "+name
		case inBlock && line != "":
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s has no block %q in section %q", surfaceGolden, name, section)
	}
	return out
}

// goldenFamilies is the Prometheus family set the golden pins (the same on
// every configuration: statsSurface checks it).
func goldenFamilies(t *testing.T) []string {
	t.Helper()
	var fams []string
	for _, line := range goldenBlock(t, "byte, 2 shards", "/metrics") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, strings.Fields(f)[0])
		}
	}
	return fams
}

// TestReadmeListsEveryFamily keeps README's Prometheus family table and the
// registry in step: every registered family is in the table, and every
// camp_* name in the table is registered.
func TestReadmeListsEveryFamily(t *testing.T) {
	s, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sb strings.Builder
	if err := s.metrics.registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	registered, err := metrics.ValidateText(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	name := regexp.MustCompile("`(camp_[a-z_]+)`")
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| ") {
			for _, m := range name.FindAllStringSubmatch(line, -1) {
				listed[m[1]] = true
			}
		}
	}
	for f := range registered {
		if !listed[f] {
			t.Errorf("family %s is registered but missing from README's family table", f)
		}
	}
	for f := range listed {
		if _, ok := registered[f]; !ok {
			t.Errorf("README's family table lists %s, which is not registered", f)
		}
	}
}
