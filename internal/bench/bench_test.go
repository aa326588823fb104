package bench

import (
	"strconv"
	"strings"
	"testing"
)

// The harness runs at paper scale through the timing model, so these
// tests verify the regenerated shapes against the paper's qualitative
// claims without real alignment work (except the functional experiment,
// which is scaled down hard).

func runner() *Runner {
	return NewRunner(Config{FunctionalScale: 40000})
}

func TestWorkerSplit(t *testing.T) {
	cases := map[int][2]int{ // workers -> {gpus, cpus}
		2: {1, 1}, 3: {2, 1}, 4: {3, 1}, 5: {4, 1}, 6: {4, 2}, 7: {4, 3}, 8: {4, 4},
	}
	for w, want := range cases {
		g, c := WorkerSplit(w)
		if g != want[0] || c != want[1] {
			t.Fatalf("split(%d) = %d+%d, want %d+%d", w, g, c, want[0], want[1])
		}
	}
}

func TestTable1(t *testing.T) {
	tb := runner().Table1()
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if tb.Rows[0][0] != "SWIPE" || tb.Rows[4][0] != "SWDUAL" {
		t.Fatalf("unexpected application order: %v", tb.Rows)
	}
	if !strings.Contains(tb.Format(), "CUDASW++") {
		t.Fatal("formatting lost applications")
	}
}

func seriesByName(tb *Table, name string) Series {
	for _, s := range tb.Series {
		if strings.HasPrefix(s.Name, name) {
			return s
		}
	}
	return Series{}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	tb := runner().Table2Figure7()
	// Figure 7's qualitative claims:
	// 1. Every application speeds up with more workers.
	for _, s := range tb.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Fatalf("%s not decreasing at point %d: %v", s.Name, i, s.Y)
			}
		}
	}
	// 2. The application ordering on equal worker counts: SWPS3 slowest,
	// then STRIPED, SWIPE, CUDASW++.
	order := []string{"SWPS3", "STRIPED", "SWIPE", "CUDASW++"}
	for w := 0; w < 4; w++ {
		for i := 1; i < len(order); i++ {
			slow := seriesByName(tb, order[i-1]).Y[w]
			fast := seriesByName(tb, order[i]).Y[w]
			if fast >= slow {
				t.Fatalf("at %d workers, %s (%.1f) should beat %s (%.1f)", w+1, order[i], fast, order[i-1], slow)
			}
		}
	}
	// 3. SWDUAL with all 8 workers beats every baseline at 4 workers.
	swdual := seriesByName(tb, "SWDUAL")
	best8 := swdual.Y[len(swdual.Y)-1]
	for _, name := range order {
		if base := seriesByName(tb, name).Y[3]; best8 >= base {
			t.Fatalf("SWDUAL@8 (%.1f) should beat %s@4 (%.1f)", best8, name, base)
		}
	}
	// 4. SWDUAL rows stay within 35% of the paper's (their middle rows
	// are noisy; the end points are much closer).
	for _, row := range tb.Rows {
		if row[0] != "SWDUAL" {
			continue
		}
		delta, err := strconv.ParseFloat(strings.TrimPrefix(row[4], "+"), 64)
		if err != nil {
			t.Fatalf("bad delta %q", row[4])
		}
		if delta > 35 || delta < -35 {
			t.Fatalf("SWDUAL workers=%s deviates %.1f%% from paper", row[1], delta)
		}
	}
}

func TestTable3CountsMatchPaper(t *testing.T) {
	tb := runner().Table3()
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] != row[2] {
			t.Fatalf("%s: generated %s sequences, paper says %s", row[0], row[1], row[2])
		}
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	tb := runner().Table4Figure8()
	// Time decreases with workers for every database.
	for _, s := range tb.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Fatalf("%s not decreasing: %v", s.Name, s.Y)
			}
		}
	}
	// UniProt is the largest database: slowest at every worker count.
	uni := seriesByName(tb, "UniProt")
	for _, s := range tb.Series {
		if s.Name == "UniProt" {
			continue
		}
		for i := range s.Y {
			if s.Y[i] >= uni.Y[i] {
				t.Fatalf("%s slower than UniProt at %d workers", s.Name, i+2)
			}
		}
	}
	// Deltas vs paper within 35%.
	for _, row := range tb.Rows {
		delta, err := strconv.ParseFloat(strings.TrimPrefix(row[4], "+"), 64)
		if err != nil {
			t.Fatalf("bad delta %q", row[4])
		}
		if delta > 35 || delta < -35 {
			t.Fatalf("%s workers=%s deviates %.1f%%", row[0], row[1], delta)
		}
	}
}

func TestTable5ShapeMatchesPaper(t *testing.T) {
	tb := runner().Table5Figure9()
	het := seriesByName(tb, "Heterogeneous")
	hom := seriesByName(tb, "Homogeneous")
	// The heterogeneous set has ~3.7x the cell volume: it must be slower
	// at every worker count, by roughly that factor (paper: 3554/998).
	for i := range het.Y {
		ratio := het.Y[i] / hom.Y[i]
		if ratio < 2.5 || ratio > 5.5 {
			t.Fatalf("hetero/homo ratio %.2f at %d workers, want ~3.6", ratio, i+2)
		}
	}
	for _, row := range tb.Rows {
		delta, err := strconv.ParseFloat(strings.TrimPrefix(row[4], "+"), 64)
		if err != nil {
			t.Fatalf("bad delta %q", row[4])
		}
		if delta > 35 || delta < -35 {
			t.Fatalf("%s workers=%s deviates %.1f%%", row[0], row[1], delta)
		}
	}
}

func TestAblationIdleDualApproxIsLow(t *testing.T) {
	tb := runner().AblationIdle()
	var dualIdle, rrIdle float64
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad idle %q", row[2])
		}
		switch row[0] {
		case "dual-2approx":
			dualIdle = v
		case "equal-power":
			rrIdle = v
		}
	}
	// The paper's claim: dual approximation leaves the PEs almost idle-
	// free; the equal-power baseline wastes the GPUs massively.
	if dualIdle > 10 {
		t.Fatalf("dual-approx idle %.2f%%, want < 10%%", dualIdle)
	}
	if rrIdle < dualIdle {
		t.Fatalf("equal-power idle %.2f%% should exceed dual-approx %.2f%%", rrIdle, dualIdle)
	}
}

func TestAblationSchedulers(t *testing.T) {
	tb := experiment(t, "sched")
	if len(tb.Rows) != 3 {
		t.Fatalf("%d families", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		dual, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if dual < 1.0 || dual > 2.0 {
			t.Fatalf("family %s: dual ratio %.3f outside [1,2]", row[0], dual)
		}
		equal, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatal(err)
		}
		if equal < dual {
			t.Fatalf("family %s: equal-power (%.3f) beat dual (%.3f)", row[0], equal, dual)
		}
	}
}

func TestFunctionalValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("functional validation is the slow real-compute path")
	}
	tb, err := runner().FunctionalValidation()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[0] == "score mismatches vs striped oracle" && row[1] != "0" {
			t.Fatalf("functional run mismatched scores: %s", row[1])
		}
	}
}

func TestByID(t *testing.T) {
	r := runner()
	for _, id := range []string{"table1", "table3", "figure7"} {
		if _, err := r.ByID(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if _, err := r.ByID("nope"); err == nil {
		t.Fatal("unknown id must fail")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "T", Title: "title", Columns: []string{"a", "bb"}}
	tb.AddRow("x", "y")
	tb.AddNote("note %d", 1)
	tb.Series = append(tb.Series, Series{Name: "s", X: []float64{1}, Y: []float64{2}})
	out := tb.Format()
	for _, want := range []string{"== T: title ==", "a", "bb", "note: note 1", "(1, 2.00)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestAblationKepler(t *testing.T) {
	tb := runner().AblationKepler()
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tb.Rows))
	}
	// The K20 model must beat the C2050 at equal worker counts.
	times := map[string]map[string]float64{}
	for _, row := range tb.Rows {
		if times[row[0]] == nil {
			times[row[0]] = map[string]float64{}
		}
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		times[row[0]][row[1]] = v
	}
	for _, w := range []string{"2", "4", "8"} {
		if times["K20"][w] >= times["C2050"][w] {
			t.Fatalf("K20 (%.1f) not faster than C2050 (%.1f) at %s workers", times["K20"][w], times["C2050"][w], w)
		}
	}
}
