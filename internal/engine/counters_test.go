package engine

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unicode"

	"swdual/internal/sched"
)

// snake turns a Go field name into its counter name: BatchedWaves ->
// batched_waves.
func snake(field string) string {
	var b strings.Builder
	for i, r := range field {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

// TestCountersNameEveryStatsCounterOnce: every uint64 field of Stats
// except the three always-zero ones is in Counters exactly once, under its
// own snake-cased name, so a new counter cannot skip the wire, the shard
// and replica sums or /metrics, and no entry reads the wrong field.
func TestCountersNameEveryStatsCounterOnce(t *testing.T) {
	alwaysZero := map[string]bool{"PipelinedWaves": true, "OverlapNanos": true, "HedgedSearches": true}
	valid := regexp.MustCompile(`^[a-z][a-z_]*$`)
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	matched := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			continue
		}
		field := v.Field(i).Addr().Interface().(*uint64)
		var names []string
		for _, c := range Counters {
			if c.Of(&st) == field {
				names = append(names, c.Name)
			}
		}
		matched += len(names)
		switch {
		case alwaysZero[f.Name]:
			if len(names) != 0 {
				t.Errorf("%s is always zero but listed as %v", f.Name, names)
			}
		case len(names) != 1:
			t.Errorf("%s is listed %d times (%v), want exactly once", f.Name, len(names), names)
		case names[0] != snake(f.Name):
			t.Errorf("%s is listed as %q, want %q", f.Name, names[0], snake(f.Name))
		}
	}
	if matched != len(Counters) {
		t.Errorf("%d of %d Counters address a uint64 Stats field", matched, len(Counters))
	}
	for _, c := range Counters {
		if !valid.MatchString(c.Name) || c.Help == "" {
			t.Errorf("counter %q: want a lower-case metric name and help text, help %q", c.Name, c.Help)
		}
	}
}

// TestStatsAddSumsAllButFacadeCounts: Add leaves Searches and Queries to
// the facade, sums every other counter plus Prepared and WorkersStarted,
// appends the backend's workers under the prefix and leaves the
// database description alone.
func TestStatsAddSumsAllButFacadeCounts(t *testing.T) {
	agg := Stats{DBSequences: 7, DBResidues: 70, DBChecksum: 0xfeed, Prepared: 1, WorkersStarted: 2,
		Workers: []WorkerRate{{Name: "own"}}}
	other := Stats{DBSequences: 3, DBResidues: 30, DBChecksum: 0xbeef, Prepared: 3, WorkersStarted: 4,
		Workers: []WorkerRate{{Name: "cpu-0", Tasks: 5}, {Name: "gpu-0", Kind: sched.GPU, ObservedGCUPS: 2.5}}}
	for i, c := range Counters {
		*c.Of(&agg) = uint64(i + 1)
		*c.Of(&other) = uint64(100 * (i + 1))
	}
	agg.Add(other, "shard1/")
	for i, c := range Counters {
		want := uint64(101 * (i + 1))
		if c.Name == "searches" || c.Name == "queries" {
			want = uint64(i + 1)
		}
		if got := *c.Of(&agg); got != want {
			t.Errorf("%s = %d after Add, want %d", c.Name, got, want)
		}
	}
	if agg.Prepared != 4 || agg.WorkersStarted != 6 {
		t.Errorf("Prepared/WorkersStarted = %d/%d, want 4/6", agg.Prepared, agg.WorkersStarted)
	}
	if agg.DBSequences != 7 || agg.DBResidues != 70 || agg.DBChecksum != 0xfeed {
		t.Errorf("Add changed the database description: %d/%d/%08x", agg.DBSequences, agg.DBResidues, agg.DBChecksum)
	}
	wantWorkers := []WorkerRate{{Name: "own"}, {Name: "shard1/cpu-0", Tasks: 5}, {Name: "shard1/gpu-0", Kind: sched.GPU, ObservedGCUPS: 2.5}}
	if !reflect.DeepEqual(agg.Workers, wantWorkers) {
		t.Errorf("workers %+v, want %+v", agg.Workers, wantWorkers)
	}
	if other.Workers[0].Name != "cpu-0" {
		t.Errorf("Add renamed the backend's own worker to %q", other.Workers[0].Name)
	}
}
