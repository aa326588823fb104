package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swdual/internal/sw"
	"swdual/internal/swvector"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata from this run")

// experiments memoizes each experiment's table across this package's
// tests, which run one at a time: the scheduler ablation alone takes
// seconds.
var experiments = map[string]*Table{}

func experiment(t *testing.T, id string) *Table {
	t.Helper()
	if tb, ok := experiments[id]; ok {
		return tb
	}
	tb, err := runner().ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	experiments[id] = tb
	return tb
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run %s -update writes it)", err, t.Name())
	}
	if got != string(want) {
		t.Fatalf("%s differs from this run (go test -run %s -update rewrites it after review):\n--- golden\n%s\n--- run\n%s", path, t.Name(), want, got)
	}
}

// TestModelledExperimentsGolden pins every experiment cmd/benchtables
// prints from the calibrated model, byte for byte, so a change to the
// model, the platform or a scheduler shows up as a reviewed golden
// diff. The functional run is left out: it reports wall time. Table I
// names the column kernel of the machine it runs on, which the golden
// spells as the name's same-width placeholder.
func TestModelledExperimentsGolden(t *testing.T) {
	kernel := swvector.NewInterSeq(sw.DefaultParams()).Name()
	for _, id := range ExperimentIDs {
		if id == "functional" {
			continue
		}
		t.Run(id, func(t *testing.T) {
			got := strings.ReplaceAll(experiment(t, id).Format(), kernel, "interseq-****")
			checkGolden(t, id+".golden", got)
		})
	}
}
