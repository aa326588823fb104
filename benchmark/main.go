// Command benchmark is the repo's benchmark: front-door GCUPS, latency,
// CPU cost, memory and set-up time on four workloads, with per-layer
// numbers from a separate traced run. See README.md in this directory.
//
//	go run ./benchmark                      every workload, each in its own process
//	go run ./benchmark -trace 1             the traced run: per-layer metrics and the span dump
//	go run ./benchmark -selfcheck           2 x 3 suites back to back, their medians compared with BENCHMARK.json's bounds
//	go run ./benchmark -workload serve_http -seed 3 -seconds 36 -trace 0
//
// The last form is the one the driver uses; its last line of output is
// one JSON object with the run's metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// config is one run's settings. Everything but the flags below is fixed
// by the benchmark, so two runs differ only in their seed.
type config struct {
	seed     int64
	rounds   int
	roundDur time.Duration
	setups   int // cold constructions timed for setup_s
	trace    bool
	workDir  string // scratch space for the corpus file and the span dump
	corpus   synth.DBSpec
	out      io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed      = flag.Int64("seed", 1, "seed of the query streams")
		seconds   = flag.Float64("seconds", 36, "length of the timed window; split evenly over -rounds")
		trace     = flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the end-to-end run")
		rounds    = flag.Int("rounds", 0, "rounds the timed window is split into (default: one per second of -seconds)")
		roundDur  = flag.Duration("round-dur", 0, "length of one round (overrides -seconds)")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end suite 2 x 3 times and compare the two medians with BENCHMARK.json's bounds")
		workDir   = flag.String("workdir", ".bench_build", "directory for the corpus file and span dumps")
	)
	flag.Parse()
	if *rounds == 0 {
		*rounds = max(1, int(math.Round(*seconds)))
	}
	if flag.NArg() > 0 || *rounds < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if *roundDur <= 0 {
		*roundDur = time.Duration(*seconds / float64(*rounds) * float64(time.Second))
	}
	if n := runtime.NumCPU(); n < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: %d CPU; every workload keeps two workers busy and needs at least 2\n", n)
		os.Exit(1)
	}
	cfg := config{seed: *seed, rounds: *rounds, roundDur: *roundDur, setups: 12, trace: *trace == 1,
		workDir: *workDir, corpus: corpusSpec, out: os.Stdout}

	var err error
	switch {
	case *name != "":
		err = runOne(cfg, *name)
	case *selfcheck:
		err = selfCheck(cfg)
	default:
		_, err = runSuite(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that measured but got a wrong or failed
// answer; its result line is still printed.
var errIncorrect = errors.New("answers differ from the oracle or requests failed")

// runOne runs one workload in this process and prints its result line.
func runOne(cfg config, name string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := measure(cfg, w)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// measure writes the corpus file, runs the workload's end-to-end or
// traced run and removes the file again.
func measure(cfg config, w workload) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	corpusPath, err := writeCorpus(dir, cfg.corpus)
	if err != nil {
		return nil, err
	}
	corpus := cfg.corpus.Generate() // the benchmark's own copy, for the generator and the oracle
	printHeader(cfg, w, corpus)
	if cfg.trace {
		return runTraced(cfg, w, corpusPath, corpus)
	}
	return runEndToEnd(cfg, w, corpusPath, corpus)
}

func printHeader(cfg config, w workload, corpus *seq.Set) {
	mode := "end-to-end (tracing off)"
	if cfg.trace {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(cfg.out, "# workload %s, %s: %s\n", w.name, mode, w.why)
	fmt.Fprintf(cfg.out, "# host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	if w.ungated != "" {
		fmt.Fprintf(cfg.out, "# not gated (absent from BENCHMARK.json): %s\n", w.ungated)
	}
	fmt.Fprintf(cfg.out, "# run: seed %d, %d rounds x %v, %d closed-loop client(s)\n",
		cfg.seed, cfg.rounds, cfg.roundDur, w.clients)
	fmt.Fprintf(cfg.out, "# corpus: %d sequences, %d residues, checksum %08x\n",
		corpus.Len(), corpus.TotalResidues(), corpus.Checksum())
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// prime sends the requests that must be answered before the window opens
// — the 8 hot requests of serve_repeat, one fresh request per client
// elsewhere — and oracle-checks every answer. It returns the digest of
// each hot request's answer.
func prime(st *stack, gens []*generator, o *oracle) (map[int]uint64, error) {
	c := newClient(st)
	defer c.close()
	digests := make(map[int]uint64)
	var reqs []*request
	if hot := gens[0].hot; hot != nil {
		reqs = hot
	} else {
		for _, g := range gens {
			reqs = append(reqs, g.next())
		}
	}
	for _, r := range reqs {
		answer, err := c.do(context.Background(), r)
		if err == nil {
			err = o.checkRequest(r, answer)
		}
		if err != nil {
			return nil, fmt.Errorf("priming %s: %w", r.id, err)
		}
		if r.hot >= 0 {
			digests[r.hot] = digest(answer)
		}
	}
	return digests, nil
}

// checkKept oracle-checks up to 8 of the answers the window kept, one
// query of each.
func checkKept(o *oracle, ks []kept) (checked int, err error) {
	step := max(1, len(ks)/8)
	for i := 0; i < len(ks) && checked < 8; i += step {
		k := ks[i]
		qi := checked % len(k.req.ids)
		if err := o.check(k.req.residues[qi], k.answer[qi]); err != nil {
			return checked, fmt.Errorf("%s: %w", k.req.ids[qi], err)
		}
		checked++
	}
	return checked, nil
}

// session is a served stack with its generators primed, ready for a
// window.
type session struct {
	st     *stack
	gens   []*generator
	verify verifier
}

// open builds a stack for the window: set-up with the warm-up request
// oracle-checked, generators, priming.
func open(cfg config, w workload, build func() (*stack, error), corpus *seq.Set, o *oracle) (*session, error) {
	gens := make([]*generator, w.clients)
	for i := range gens {
		gens[i] = newGenerator(w, cfg.seed, i, corpus)
	}
	warm := gens[0].warmup()
	st, answer, _, err := setup(build, warm)
	if err != nil {
		return nil, err
	}
	if err := o.checkRequest(warm, answer); err != nil {
		st.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	digests, err := prime(st, gens, o)
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &session{st: st, gens: gens}
	if len(digests) > 0 {
		s.verify = func(r *request, answer [][]master.Hit) error {
			if digest(answer) != digests[r.hot] {
				return fmt.Errorf("%s: answer differs from the primed, oracle-checked one", r.id)
			}
			return nil
		}
	}
	return s, nil
}

// served is one window over one stack with what was counted around it.
type served struct {
	*window
	rounds  roundMetrics
	delta   engine.Stats // the stack's counters over the window
	shed    uint64
	rssMiB  float64 // peak resident set over the window
	checked int     // window answers the oracle compared afterwards
}

// serve constructs a stack with build, primes it, runs one window of that
// many rounds over it and closes it, then oracle-checks the answers the
// window kept. Requests and failures are folded into res.
func serve(cfg config, w workload, build func() (*stack, error), rounds int, corpus *seq.Set, res *result) (*served, error) {
	o := &oracle{db: corpus, params: sw.DefaultParams()}
	s, err := open(cfg, w, build, corpus, o)
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	before := s.st.stats()
	win, err := runWindow(s.st, s.gens, rounds, cfg.roundDur, s.verify)
	sv := &served{window: win, shed: s.st.shedCount()}
	if err == nil {
		sv.delta = statsDelta(before, s.st.stats())
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	// Peak memory is read before the oracle works through the kept answers.
	if sv.rssMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	for _, e := range win.errs {
		fmt.Fprintf(cfg.out, "FAILED request: %v\n", e)
	}
	if sv.checked, err = checkKept(o, win.kept); err != nil {
		fmt.Fprintf(cfg.out, "FAILED oracle check: %v\n", err)
		res.Failed++
	}
	res.Attempted += win.attempted + sv.checked
	res.Failed += win.failed
	sv.rounds = win.analyze()
	return sv, nil
}

// runEndToEnd measures the end-to-end metrics through the public API,
// tracing off.
func runEndToEnd(cfg config, w workload, corpusPath string, corpus *seq.Set) (*result, error) {
	build := func() (*stack, error) { return buildPublic(w, corpusPath) }
	warm := newGenerator(w, cfg.seed, 0, corpus).warmup()

	// setup_s: construct everything, answer one request, tear down. Half
	// of the set-ups run before the window and half after it, so that one
	// slow spell of the host cannot colour them all.
	var setups []float64
	timeSetups := func(n int) error {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			st, _, _, err := setup(build, warm)
			if err != nil {
				return err
			}
			if err := st.Close(); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := timeSetups(cfg.setups / 2); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	sv, err := serve(cfg, w, build, cfg.rounds, corpus, res)
	if err != nil {
		return nil, err
	}
	if err := timeSetups(cfg.setups - cfg.setups/2); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	for _, m := range []struct {
		name, unit string
		rounds     []float64
		value      float64
	}{
		{"setup_s", "s", setups, bestRounds(setups, false)},
		{"gcups", "Gcell/s", sv.rounds.gcups, bestRounds(sv.rounds.gcups, true)},
		{"p50_ms", "ms", sv.rounds.p50ms, bestRounds(sv.rounds.p50ms, false)},
		{"cpu_s_per_gcell", "s/Gcell", sv.rounds.cpuPerGcell, bestRounds(sv.rounds.cpuPerGcell, false)},
	} {
		res.Metrics[m.name] = metric{m.value, m.unit}
		fmt.Fprintf(cfg.out, "%-18s %12.6g %-8s (rounds: median %.6g, min %.6g, max %.6g; %.5g)\n", m.name, m.value, m.unit,
			quantile(m.rounds, 0.5), quantile(m.rounds, 0), quantile(m.rounds, 1), m.rounds)
	}
	res.Metrics["rss_mb"] = metric{sv.rssMiB, "MiB"}
	p90, n := sv.pooledLatency(0.9)
	fmt.Fprintf(cfg.out, "%-18s %12.6g %-8s\n", "rss_mb", sv.rssMiB, "MiB")
	fmt.Fprintf(cfg.out, "%-18s %12.6g %-8s (pooled over %d requests; not a gated metric)\n", "p90_ms", p90, "ms", n)
	fmt.Fprintf(cfg.out, "requests: %d sent, %d failed, %d shed; %d window answers oracle-checked\n",
		sv.attempted, sv.failed, sv.shed, sv.checked)
	return res, nil
}

// runSuite runs every workload in a child process of its own (so set-up
// time and peak memory are that workload's alone), passes the children's
// reports through to out and returns their results by workload name.
func runSuite(cfg config, out io.Writer) (map[string]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := make(map[string]*result)
	var failed []string
	for _, w := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-trace", trace,
			"-rounds", fmt.Sprint(cfg.rounds), "-round-dur", cfg.roundDur.String(), "-workdir", cfg.workDir)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		out.Write(raw) //nolint:errcheck // a report to the terminal
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			return nil, fmt.Errorf("%s: no result line (%v): %w", w.name, jerr, err)
		}
		results[w.name] = &res
		if err != nil || !res.Correct {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("%w: %s", errIncorrect, strings.Join(failed, ", "))
	}
	return results, nil
}

// selfcheckSuites is how many suites make one side of a selfcheck. The
// driver compares medians of ten runs; a single run can land in a spell
// in which the host runs at half speed for the whole window, and three is
// the fewest whose median shrugs one such run off.
const selfcheckSuites = 3

// selfCheck runs the end-to-end suite 2 × selfcheckSuites times, each
// with another seed, and holds the median of the second half against the
// median of the first with the bounds BENCHMARK.json states: the
// benchmark's own noise test.
func selfCheck(cfg config) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var contract struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	cfg.trace = false
	var sides [2]map[string][]float64 // "workload metric" → one value per suite
	for i := range sides {
		sides[i] = make(map[string][]float64)
		for j := 0; j < selfcheckSuites; j++ {
			fmt.Fprintf(cfg.out, "# selfcheck: suite %d of %d, seed %d\n", i*selfcheckSuites+j+1, 2*selfcheckSuites, cfg.seed)
			results, err := runSuite(cfg, io.Discard)
			if err != nil {
				return err
			}
			for name, res := range results {
				for metric, m := range res.Metrics {
					sides[i][name+" "+metric] = append(sides[i][name+" "+metric], m.Value)
				}
			}
			cfg.seed++
		}
	}
	fails := 0
	fmt.Fprintf(cfg.out, "%-16s %-16s %12s %12s %9s %6s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		for _, m := range contract.EndToEnd {
			a, b := quantile(sides[0][w.name+" "+m.Name], 0.5), quantile(sides[1][w.name+" "+m.Name], 0.5)
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "PASS"
			switch {
			case w.ungated != "":
				verdict = "not gated"
			case worse > m.Bound || a == 0:
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(cfg.out, "%-16s %-16s %12.6g %12.6g %+8.2f%% %5.0f%% %s\n",
				w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if fails > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved by more than their bound between two sets of runs of the same code", fails)
	}
	return nil
}
