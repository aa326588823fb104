package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"swdual/internal/master"
)

// quantile returns the q'th quantile (0..1) of xs by linear interpolation
// between order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// bestRounds is the reported value of a per-round metric: the mean of
// its three best rounds.
// The host is shared, and a neighbour only ever makes a round worse — for
// seconds or for minutes at a time (sizing: the rounds of one batch_scan
// window read 0.15–0.42 Gcell/s while the best three of each window stayed
// within 4 % of each other over 12 windows, where their quartile moved by
// 9 % and their mean by 17 %). Three rounds rather than one, because a
// round can also read a few per cent too well.
func bestRounds(rounds []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), rounds...)
	sort.Float64s(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	s = s[:min(3, len(s))]
	var sum float64
	for _, x := range s {
		sum += x
	}
	if len(s) == 0 {
		return 0
	}
	return sum / float64(len(s))
}

// sample is one request as its client saw it, timed from window start.
// rss_mb is read off this process and serve_repeat records 10^5 of these
// per client, so the record is kept to 24 bytes.
type sample struct {
	start   time.Duration
	latency uint32 // in 100 ns
	ok      bool
	cells   int64
}

func newSample(start, end time.Duration, cells int64, ok bool) sample {
	return sample{start: start, latency: uint32(min((end-start)/100, math.MaxUint32)), cells: cells, ok: ok}
}

func (s sample) dur() time.Duration { return time.Duration(s.latency) * 100 }
func (s sample) end() time.Duration { return s.start + s.dur() }

// kept is an answer held back for the oracle check after the window.
type kept struct {
	req    *request
	answer [][]master.Hit
}

// window is the raw record of one timed window.
type window struct {
	started           time.Time
	bounds            []time.Duration // round boundaries as actually sampled; bounds[0] = 0
	cpu               []time.Duration // process CPU time at each boundary
	samples           [][]sample      // per client
	kept              []kept
	errs              []error // first few failures, for the report
	attempted, failed int
}

// verifier checks one in-window answer beyond its shape; nil means the
// shape check is all.
type verifier func(r *request, answer [][]master.Hit) error

// runWindow drives the stack with closed-loop clients for rounds×roundDur
// and records every request. A request fails if it errors, is not a 200,
// or fails the answer check. Clients stop starting requests when the
// window ends; requests then in flight finish and are recorded.
func runWindow(st *stack, gens []*generator, rounds int, roundDur time.Duration, verify verifier) (*window, error) {
	w := &window{bounds: make([]time.Duration, rounds+1), cpu: make([]time.Duration, rounds+1),
		samples: make([][]sample, len(gens))}
	for i := range w.samples {
		w.samples[i] = make([]sample, 0, 1<<17) // serve_repeat's count today: no regrowth

	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	w.started, w.cpu[0] = start, cpu0
	end := start.Add(time.Duration(rounds) * roundDur)

	wg.Add(1)
	go func() { // the round clock
		defer wg.Done()
		for k := 1; k <= rounds; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * roundDur)))
			c, _ := cpuTime() // cannot fail: it just succeeded
			w.bounds[k], w.cpu[k] = time.Since(start), c
		}
	}()
	for i, g := range gens {
		wg.Add(1)
		go func(local *[]sample, g *generator) {
			defer wg.Done()
			c := newClient(st)
			defer c.close()
			var localKept []kept
			var errs []error
			lastKept := -1
			for time.Now().Before(end) {
				r := g.next()
				t0 := time.Since(start)
				answer, err := c.do(context.Background(), r)
				t1 := time.Since(start)
				if err == nil {
					err = checkShape(r, answer)
				}
				if err == nil && verify != nil {
					err = verify(r, answer)
				}
				*local = append(*local, newSample(t0, t1, r.cells, err == nil))
				if err != nil {
					if len(errs) < 3 {
						errs = append(errs, err)
					}
					continue
				}
				// Keep the first answer of each round for the oracle.
				if round := int(t1 / roundDur); round != lastKept {
					lastKept = round
					localKept = append(localKept, kept{r, answer})
				}
			}
			mu.Lock()
			w.kept = append(w.kept, localKept...)
			w.errs = append(w.errs, errs...)
			mu.Unlock()
		}(&w.samples[i], g)
	}
	wg.Wait()
	w.each(func(s sample) {
		w.attempted++
		if !s.ok {
			w.failed++
		}
	})
	return w, nil
}

// each calls f for every request of the window.
func (w *window) each(f func(sample)) {
	for _, client := range w.samples {
		for _, s := range client {
			f(s)
		}
	}
}

// roundMetrics are the per-round values of the three timed end-to-end
// metrics.
type roundMetrics struct {
	gcups       []float64
	p50ms       []float64
	cpuPerGcell []float64
}

// analyze computes each metric per round. A request's cells are spread
// evenly over its own duration, so a round is credited exactly the work
// done inside it and a request straddling a boundary does not make one
// round look fast and the next slow. A request's latency counts in the
// round it finishes in (the last one, if it finishes after the window).
func (w *window) analyze() roundMetrics {
	rounds := len(w.bounds) - 1
	var m roundMetrics
	lat := make([][]float64, rounds)
	gcells := make([]float64, rounds)
	w.each(func(s sample) {
		if !s.ok {
			return
		}
		end := s.end()
		k := sort.Search(rounds, func(k int) bool { return w.bounds[k+1] >= end })
		if k == rounds {
			k = rounds - 1
		}
		lat[k] = append(lat[k], float64(s.dur())/1e6)
		if s.dur() <= 0 {
			gcells[k] += float64(s.cells) / 1e9
			return
		}
		for r := 0; r < rounds; r++ {
			lo, hi := max(s.start, w.bounds[r]), min(end, w.bounds[r+1])
			if hi > lo {
				gcells[r] += float64(s.cells) / 1e9 * float64(hi-lo) / float64(s.dur())
			}
		}
	})
	for r := 0; r < rounds; r++ {
		wall := (w.bounds[r+1] - w.bounds[r]).Seconds()
		if wall <= 0 || gcells[r] == 0 {
			continue // an empty round has no rate; a smoke run may have one
		}
		m.gcups = append(m.gcups, gcells[r]/wall)
		m.cpuPerGcell = append(m.cpuPerGcell, (w.cpu[r+1]-w.cpu[r]).Seconds()/gcells[r])
		if len(lat[r]) > 0 {
			m.p50ms = append(m.p50ms, quantile(lat[r], 0.5))
		}
	}
	return m
}

// pooledLatency returns the q'th latency quantile over every successful
// request of the window, in ms, and the sample count.
func (w *window) pooledLatency(q float64) (float64, int) {
	var lat []float64
	w.each(func(s sample) {
		if s.ok {
			lat = append(lat, float64(s.dur())/1e6)
		}
	})
	return quantile(lat, q), len(lat)
}

// cv is the coefficient of variation of xs.
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean, ss float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	if mean == 0 {
		return 0
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}

// resetPeakRSS collects the garbage of set-up, priming and their oracle
// checks, hands freed memory back and restarts the kernel's peak-RSS
// record, so that rss_mb is the serving stack's footprint under load and
// not a trace of when the collector last ran during set-up. Where the
// kernel cannot restart the record, the peak stays the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
