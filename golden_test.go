package swdual_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swdual"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run")

// TestPaperPlatformPlanGolden pins the paper-scale plans of UniProt for
// both of Table V's query sets on 2 to 8 workers: makespan, lower
// bound, GCUPS, idle fraction and every placement. A change to the
// model or the scheduler shows up as a reviewed diff of the golden
// file, which lives with the benchtables goldens.
func TestPaperPlatformPlanGolden(t *testing.T) {
	var sb strings.Builder
	for _, set := range []string{"standard", "heterogeneous"} {
		for workers := 2; workers <= 8; workers++ {
			plan, err := swdual.PaperPlatformPlan("UniProt", set, workers)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "UniProt %s, %d workers: %s, makespan %.4f s, lower bound %.4f s, %.4f GCUPS, idle %.4f%%\n",
				set, workers, plan.Algorithm, plan.Makespan, plan.LowerBound, plan.GCUPS, 100*plan.IdleFraction)
			for _, tp := range plan.Tasks {
				fmt.Fprintf(&sb, "  q%02d (len %5d) -> %s%d [%.4f, %.4f)\n", tp.QueryIndex, tp.QueryLen, tp.Kind, tp.PE, tp.Start, tp.End)
			}
		}
	}
	path := filepath.Join("internal", "bench", "testdata", "paper_platform_plan.golden")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run %s -update writes it)", err, t.Name())
	}
	if sb.String() != string(want) {
		t.Fatalf("%s differs from this run (go test -run %s -update rewrites it after review):\n%s", path, t.Name(), sb.String())
	}
}
