package master

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/swvector"
	"swdual/internal/synth"
)

func testWorkers(topK int) []Worker {
	params := sw.DefaultParams()
	return []Worker{
		NewEngineWorker("gpu-0", sched.GPU, swvector.NewInterSeq(params), 24.8, topK),
		NewEngineWorker("gpu-1", sched.GPU, swvector.NewInterSeq(params), 24.8, topK),
		NewEngineWorker("cpu-0", sched.CPU, swvector.NewInterSeq(params), 8.3, topK),
		NewEngineWorker("cpu-1", sched.CPU, swvector.NewStriped(params), 8.3, topK),
	}
}

func testData(t *testing.T) (db, queries *seq.Set) {
	t.Helper()
	db = synth.RandomSet(alphabet.Protein, 60, 10, 200, 21)
	queries = synth.RandomSet(alphabet.Protein, 12, 20, 120, 22)
	return db, queries
}

// instance builds the scheduling instance of a whole query set from the
// workers' advertised rates.
func instance(db, queries *seq.Set, workers []Worker) *sched.Instance {
	lens := make([]int, queries.Len())
	ids := make([]string, queries.Len())
	for i := range queries.Seqs {
		lens[i] = queries.Seqs[i].Len()
		ids[i] = queries.Seqs[i].ID
	}
	return BuildInstance(db.TotalResidues(), lens, ids, RatesOf(workers))
}

// runRequest composes the three roles over a Pool for one query set, as
// the engine's dispatcher does for one wave on an idle pool: assign with
// the policy (self-scheduling: the shared queue), submit, merge.
func runRequest(t *testing.T, db, queries *seq.Set, workers []Worker, policy Policy) *Report {
	t.Helper()
	p, err := NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	merge := NewMerger(queries.Len())
	tasks := func(queue []int) []PoolTask {
		var ts []PoolTask
		for _, qi := range queue {
			ts = append(ts, PoolTask{QueryIndex: qi, Query: &queries.Seqs[qi], DB: db,
				Done: func(res QueryResult, _ bool) { merge.Add(qi, res) }})
		}
		return ts
	}
	queues := [3][]int{Shared: make([]int, queries.Len())}
	for qi := range queues[Shared] {
		queues[Shared][qi] = qi
	}
	var s *sched.Schedule
	if policy != PolicySelfScheduling {
		var kinds [2][]int
		kinds, s, err = Assign(policy, instance(db, queries, workers), workers)
		if err != nil {
			t.Fatal(err)
		}
		queues = [3][]int{kinds[sched.CPU], kinds[sched.GPU]}
	}
	for q, queue := range queues {
		if err := p.Submit(q, tasks(queue)...); err != nil {
			t.Fatal(err)
		}
	}
	<-merge.Done()
	return merge.Report(s)
}

// oracleHits is the reference every merged result is checked against:
// sw.Score per subject, ranked by TopHits.
func oracleHits(db *seq.Set, q *seq.Sequence, k int) []Hit {
	params := sw.DefaultParams()
	scores := make([]int, db.Len())
	for i := range db.Seqs {
		scores[i] = sw.Score(params, q.Residues, db.Seqs[i].Residues)
	}
	return TopHits(db, scores, k)
}

func checkOracle(t *testing.T, label string, db, queries *seq.Set, rep *Report, k int) {
	t.Helper()
	if len(rep.Results) != queries.Len() {
		t.Fatalf("%s: %d results for %d queries", label, len(rep.Results), queries.Len())
	}
	for qi, res := range rep.Results {
		if res.QueryID != queries.Seqs[qi].ID {
			t.Fatalf("%s: result %d answers query %q", label, qi, res.QueryID)
		}
		want := oracleHits(db, &queries.Seqs[qi], k)
		if len(res.Hits) != len(want) {
			t.Fatalf("%s query %d: %d hits, oracle %d", label, qi, len(res.Hits), len(want))
		}
		for i := range want {
			if res.Hits[i] != want[i] {
				t.Fatalf("%s query %d hit %d: %+v, oracle %+v", label, qi, i, res.Hits[i], want[i])
			}
		}
	}
}

func TestRunDualApprox(t *testing.T) {
	db, queries := testData(t)
	rep := runRequest(t, db, queries, testWorkers(5), PolicyDualApprox)
	if rep.Schedule == nil {
		t.Fatal("dual approx must report a schedule")
	}
	if rep.Cells <= 0 || rep.Wall <= 0 {
		t.Fatalf("accounting: cells %d wall %v", rep.Cells, rep.Wall)
	}
	checkOracle(t, "dual-approx", db, queries, rep, 5)
}

func TestAllPoliciesProduceIdenticalHits(t *testing.T) {
	db, queries := testData(t)
	for _, policy := range []Policy{PolicyDualApprox, PolicyDualApproxDP, PolicySelfScheduling, PolicyRoundRobin} {
		checkOracle(t, policy.String(), db, queries, runRequest(t, db, queries, testWorkers(5), policy), 5)
	}
}

func TestInstanceFromWorkerRates(t *testing.T) {
	db, queries := testData(t)
	in := instance(db, queries, testWorkers(3))
	if in.CPUs != 2 || in.GPUs != 2 {
		t.Fatalf("pools %d/%d", in.CPUs, in.GPUs)
	}
	if len(in.Tasks) != queries.Len() {
		t.Fatalf("%d tasks", len(in.Tasks))
	}
	for _, task := range in.Tasks {
		if task.CPUTime <= 0 || task.GPUTime <= 0 {
			t.Fatalf("task times %+v", task)
		}
		// Advertised GPU rate (24.8) beats CPU rate (8.3).
		if task.GPUTime >= task.CPUTime {
			t.Fatalf("task %d not accelerated: %+v", task.ID, task)
		}
	}
}

func TestWorkerAccounting(t *testing.T) {
	db, queries := testData(t)
	rep := runRequest(t, db, queries, testWorkers(2), PolicySelfScheduling)
	tasks := map[string]int{}
	var busy time.Duration
	for _, r := range rep.Results {
		if r.Worker == "" {
			t.Fatalf("query %d names no worker", r.QueryIndex)
		}
		tasks[r.Worker]++
		busy += r.Elapsed
	}
	total := 0
	for _, n := range tasks {
		total += n
	}
	if total != queries.Len() {
		t.Fatalf("task accounting: %d vs %d", total, queries.Len())
	}
	if busy <= 0 {
		t.Fatal("no busy time recorded")
	}
}

func TestTopHits(t *testing.T) {
	db := seq.NewSet(alphabet.Protein)
	db.AddEncoded("a", "", []byte{0})
	db.AddEncoded("b", "", []byte{0})
	db.AddEncoded("c", "", []byte{0})
	hits := TopHits(db, []int{5, 9, 5}, 2)
	if len(hits) != 2 {
		t.Fatalf("%d hits", len(hits))
	}
	if hits[0].SeqID != "b" || hits[0].Score != 9 {
		t.Fatalf("best hit %+v", hits[0])
	}
	// Ties break on sequence index.
	if hits[1].SeqID != "a" {
		t.Fatalf("tie break %+v", hits[1])
	}
}

// stableTopHits is the reference TopHits is checked against: every score
// a hit, stably sorted by HitBefore, cut to k.
func stableTopHits(db *seq.Set, scores []int, k int) []Hit {
	hits := make([]Hit, len(scores))
	for i, s := range scores {
		hits[i] = Hit{SeqIndex: i, SeqID: db.Seqs[i].ID, Score: s}
	}
	sort.SliceStable(hits, func(a, b int) bool { return HitBefore(hits[a], hits[b]) })
	return hits[:max(0, min(k, len(hits)))]
}

// TestTopHitsMatchesStableSort checks the selection against a full stable
// sort: score ranges from all-equal to all-distinct, so ties are heavy, in
// random, ascending and descending order, for every k from none to more
// than there are scores. k <= 0 keeps nothing.
func TestTopHitsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, n := range []int{0, 1, 300} {
		db := synth.RandomSet(alphabet.Protein, n, 1, 2, 98)
		for _, spread := range []int{1, 3, 40, 1 << 20} {
			scores := make([]int, n)
			for i := range scores {
				scores[i] = rng.Intn(spread)
			}
			for _, order := range []string{"random", "ascending", "descending"} {
				switch order {
				case "ascending":
					slices.Sort(scores)
				case "descending":
					slices.Sort(scores)
					slices.Reverse(scores)
				}
				for _, k := range []int{-1, 0, 1, 10, n - 1, n, n + 5} {
					got, want := TopHits(db, scores, k), stableTopHits(db, scores, k)
					if got == nil || !slices.Equal(got, want) {
						t.Fatalf("n=%d spread %d %s k=%d:\n got  %v\n want %v", n, spread, order, k, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkTopHits is one task's hit selection on the gate's shape: 300
// scores, the top 10 kept.
func BenchmarkTopHits(b *testing.B) {
	db := synth.RandomSet(alphabet.Protein, 300, 1, 2, 99)
	rng := rand.New(rand.NewSource(100))
	scores := make([]int, db.Len())
	for i := range scores {
		scores[i] = 20 + rng.Intn(60)
	}
	b.ReportAllocs()
	for b.Loop() {
		TopHits(db, scores, 10)
	}
}

func TestConfigErrors(t *testing.T) {
	db, queries := testData(t)
	if _, err := NewPool(nil); err == nil {
		t.Fatal("a pool without workers must fail")
	}
	workers := testWorkers(1)
	if _, _, err := Assign(Policy(99), instance(db, queries, workers), workers); err == nil {
		t.Fatal("unknown policy must fail")
	}
	if Policy(99).String() == "" || PolicyDualApprox.String() != "dual-approx" {
		t.Fatal("policy names")
	}
}

// TestAssignRoundRobinIsEqualPower: round-robin deals exactly the
// placements sched.EqualPower plans — GPUs first — and queues each kind's
// tasks in planned start order, so the engine runs the schedule the
// tables and the modeled plans report.
func TestAssignRoundRobinIsEqualPower(t *testing.T) {
	db, queries := testData(t)
	workers := testWorkers(3) // 2 GPUs + 2 CPUs
	in := instance(db, queries, workers)
	queues, s, err := Assign(PolicyRoundRobin, in, workers)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.EqualPower(in)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || !reflect.DeepEqual(s, want) {
		t.Fatalf("round-robin schedule %+v, EqualPower %+v", s, want)
	}
	var wantQueues [2][]int
	byStart := append([]sched.Placement(nil), want.Placements...)
	sort.SliceStable(byStart, func(a, b int) bool { return byStart[a].Start < byStart[b].Start })
	for _, pl := range byStart {
		wantQueues[pl.Kind] = append(wantQueues[pl.Kind], pl.Task)
	}
	if !reflect.DeepEqual(queues, wantQueues) {
		t.Fatalf("round-robin queues %v, EqualPower's in start order %v", queues, wantQueues)
	}
	if len(queues[sched.GPU]) == 0 || queues[sched.GPU][0] != 0 {
		t.Fatalf("round-robin must deal task 0 to a GPU first: %v", queues)
	}
}
