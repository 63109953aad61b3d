package listrank

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDaemonImportsNoReproduction keeps the reproduction track off the
// serving path: cmd/listrankd must not depend on package repro, the
// simulated machines, the cost model and its statistics, or the
// reference algorithms, which only package repro imports.
func TestDaemonImportsNoReproduction(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/listrankd").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/listrankd: %v\n%s", err, out)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	if !deps["listrank"] || !deps["listrank/internal/core"] {
		t.Fatalf("go list -deps ./cmd/listrankd lacks listrank or internal/core; the walk is broken:\n%s", out)
	}
	for _, p := range []string{
		"listrank/repro",
		"listrank/internal/vm", "listrank/internal/vecalg", "listrank/internal/alpha",
		"listrank/internal/model", "listrank/internal/sched", "listrank/internal/stats",
		"listrank/internal/wyllie", "listrank/internal/randmate", "listrank/internal/ruling",
	} {
		if deps[p] {
			t.Errorf("cmd/listrankd depends on %s, which belongs to the reproduction track", p)
		}
	}
}
