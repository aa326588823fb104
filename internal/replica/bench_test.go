package replica

import (
	"context"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/swvector"
	"swdual/internal/synth"
)

// slowWorker computes real scores through the inter-sequence CPU
// engine, delayed by a fixed per-task stall — a stand-in for a replica
// on an overloaded host: correct, just late.
type slowWorker struct {
	*master.EngineWorker
	delay time.Duration
}

func (w *slowWorker) Run(qi int, q *seq.Sequence, db *seq.Set) master.QueryResult {
	time.Sleep(w.delay)
	return w.EngineWorker.Run(qi, q, db)
}

// BenchmarkHedgedSearchLatency measures what hedging buys: replica 0
// stalls every task by a fixed delay (overloaded, not dead), replica 1
// is healthy. With hedging off every search waits out the stall; with a
// 1ms hedge threshold the search is re-issued to the healthy sibling
// and ns/op collapses toward the fast replica's latency. The answers
// are byte-identical either way — the delta is tail latency only.
func BenchmarkHedgedSearchLatency(b *testing.B) {
	db := synth.RandomSet(alphabet.Protein, 16, 10, 60, 8001)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 50, 8002)
	const topK = 5
	const stall = 10 * time.Millisecond
	for _, cfg := range []struct {
		name string
		c    Config
	}{
		{"hedge=off", Config{DisableHedge: true}},
		{"hedge=1ms", Config{HedgeAfter: time.Millisecond}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			sw0 := &slowWorker{
				EngineWorker: master.NewEngineWorker("slow", sched.CPU, swvector.NewInterSeq(sw.DefaultParams()), 8, topK),
				delay:        stall,
			}
			slow, err := engine.New(db, engine.Config{
				Workers: []master.Worker{sw0}, TopK: topK, Policy: master.PolicySelfScheduling,
			})
			if err != nil {
				b.Fatal(err)
			}
			fast, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: topK})
			if err != nil {
				b.Fatal(err)
			}
			set, err := NewSet("bench", db.Checksum(),
				[]Replica{{Backend: slow}, {Backend: fast}}, cfg.c)
			if err != nil {
				b.Fatal(err)
			}
			defer set.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := set.Search(ctx, queries, engine.SearchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := set.Stats()
			b.ReportMetric(float64(st.HedgedSearches)/float64(b.N), "hedges/op")
		})
	}
}
