package camp

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestLineBudgets enforces the Makefile's line budgets: each NAME_LOC_BUDGET
// caps the non-test Go lines (`wc -l`) of one package directory — NAME
// lowercased with _ as /, under internal/ when that is not a directory at
// the root (KVSERVER is internal/kvserver, INTERNAL_CACHE internal/cache).
// The budgets only ever go down, so a package can only shrink.
func TestLineBudgets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	budgets := regexp.MustCompile(`(?m)^(\w+)_LOC_BUDGET \?= (\d+)$`).FindAllSubmatch(makefile, -1)
	if len(budgets) == 0 {
		t.Fatal("the Makefile declares no *_LOC_BUDGET")
	}
	for _, m := range budgets {
		budget, _ := strconv.Atoi(string(m[2]))
		dir := strings.ReplaceAll(strings.ToLower(string(m[1])), "_", "/")
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			dir = filepath.Join("internal", dir)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		lines := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
		if lines == 0 {
			t.Errorf("%s_LOC_BUDGET: no Go source in %s", m[1], dir)
		} else if lines > budget {
			t.Errorf("%s has %d non-test lines, budget %d (%s_LOC_BUDGET in the Makefile)", dir, lines, budget, m[1])
		}
	}
}
