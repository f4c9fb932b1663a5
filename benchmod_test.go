package camp

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets compiles and vets bench/, the benchmark's own module,
// against this tree: `go build ./...` here never compiles it, so without this
// an API change that breaks the benchmark surfaces only when a run fails.
func TestBenchModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
