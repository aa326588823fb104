package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("empty-input convention")
	}
}

func TestGCUPS(t *testing.T) {
	if GCUPS(5e9, 2.5) != 2 {
		t.Fatal("GCUPS")
	}
	if GCUPS(1, 0) != 0 {
		t.Fatal("zero time")
	}
}

func TestPctDelta(t *testing.T) {
	if PctDelta(110, 100) != 10 {
		t.Fatal("delta up")
	}
	if PctDelta(90, 100) != -10 {
		t.Fatal("delta down")
	}
	if PctDelta(5, 0) != 0 {
		t.Fatal("zero base")
	}
}

func TestFmtSeconds(t *testing.T) {
	cases := map[float64]string{
		12345.6: "12345.6",
		123.456: "123.46",
		1.23456: "1.235",
	}
	for in, want := range cases {
		if got := FmtSeconds(in); got != want {
			t.Fatalf("FmtSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		// Clamp to a range whose sums cannot overflow float64.
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e12))
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		m := Mean(xs)
		return m >= lo-1e-9*math.Abs(lo)-1e-9 && m <= hi+1e-9*math.Abs(hi)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 1}, {20, 1}, {50, 3}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
	// The input must not be reordered: callers keep appending to it.
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestLatencyEWMA(t *testing.T) {
	var l EWMA
	if mean, n := l.Snapshot(); mean != 0 || n != 0 {
		t.Fatalf("zero value: mean %v n %d", mean, n)
	}
	l.Observe(0)  // ignored: carries no information
	l.Observe(-1) // ignored
	if _, n := l.Snapshot(); n != 0 {
		t.Fatalf("non-positive observations counted: n %d", n)
	}
	ms := float64(time.Millisecond)
	l.Observe(100 * ms)
	if mean, n := l.Snapshot(); n != 1 || mean != 100*ms {
		t.Fatalf("first observation: mean %v n %d", mean, n)
	}
	// The EWMA moves toward new observations but never past them.
	l.Observe(200 * ms)
	mean, n := l.Snapshot()
	if n != 2 || mean <= 100*ms || mean >= 200*ms {
		t.Fatalf("after second observation: mean %v n %d", mean, n)
	}
	// Repeated identical observations converge to that value.
	for i := 0; i < 50; i++ {
		l.Observe(float64(time.Second))
	}
	mean, _ = l.Snapshot()
	if d := mean - float64(time.Second); d < -ms || d > ms {
		t.Fatalf("did not converge: mean %v", mean)
	}
}

// TestSeededEWMABlendsFirstObservation: a seeded average treats its
// seed as history, so the first observation moves it by alpha only.
func TestSeededEWMABlendsFirstObservation(t *testing.T) {
	e := NewEWMA(10)
	if mean, n := e.Snapshot(); mean != 10 || n != 0 {
		t.Fatalf("seed: mean %v n %d", mean, n)
	}
	e.Observe(20)
	if mean, n := e.Snapshot(); n != 1 || math.Abs(mean-13) > 1e-12 {
		t.Fatalf("first observation: mean %v n %d, want 13 (0.3·20 + 0.7·10)", mean, n)
	}
}
