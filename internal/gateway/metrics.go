package gateway

import (
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"strings"
	"time"

	"swdual/internal/engine"
)

// GET /metrics renders the gateway's counters and the backend's
// engine.Stats in the Prometheus text exposition format — hand-rolled,
// because the format is three lines per metric and a client library is
// a dependency this module doesn't carry.

// promEscape escapes a label value per the exposition format.
var promEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

type promWriter struct {
	w io.Writer
}

func (p promWriter) counter(name, help string, v uint64) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func (p promWriter) gauge(name, help string, v float64) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

func (p promWriter) labeledHeader(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) labeled(name, worker string, v float64) {
	fmt.Fprintf(p.w, "%s{worker=\"%s\"} %g\n", name, promEscape.Replace(worker), v)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, &apiError{code: http.StatusMethodNotAllowed, msg: "GET only"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := promWriter{w: w}
	c := g.Counters()
	p.counter("swdual_gateway_admitted_total", "Requests that reached an execution slot.", c.Admitted)
	p.counter("swdual_gateway_shed_queue_total", "Requests rejected with 429 because the admission queue was full.", c.ShedQueue)
	p.counter("swdual_gateway_shed_client_total", "Requests rejected with 429 by the per-client slot bound.", c.ShedClient)
	p.counter("swdual_gateway_completed_total", "Searches answered 2xx (200 full plus 206 partial).", c.Completed)
	p.counter("swdual_gateway_degraded_total", "Searches answered 206 with partial database coverage.", c.Degraded)
	p.counter("swdual_gateway_failed_total", "Searches failed by the backend (5xx).", c.Failed)
	p.counter("swdual_gateway_timed_out_total", "Requests answered 504 because their deadline passed while queued or searching.", c.TimedOut)
	p.counter("swdual_gateway_client_gone_total", "Requests whose client disconnected before the answer.", c.ClientGone)
	p.gauge("swdual_gateway_in_flight", "Searches executing right now.", float64(c.InFlight))
	p.gauge("swdual_gateway_queue_depth", "Admitted requests waiting for an execution slot.", float64(c.QueueDepth))
	p.gauge("swdual_gateway_latency_mean_seconds", "EWMA of completed search latency (drives Retry-After).", time.Duration(c.LatencyMeanNS).Seconds())

	st := g.be.Stats()
	p.gauge("swdual_engine_db_sequences", "Sequences in the prepared database.", float64(st.DBSequences))
	p.gauge("swdual_engine_db_residues", "Residues in the prepared database.", float64(st.DBResidues))
	for _, c := range engine.Counters {
		p.counter("swdual_engine_"+c.Name+"_total", c.Help, *c.Of(&st))
	}

	// Process-level memory accounting: with a mapped .swdb the corpus
	// lives outside the Go heap, and these three gauges are how an
	// operator sees that split — heap shrinks, mapped bytes appear, GC
	// pause growth slows. They are read through runtime/metrics, which
	// does not stop the world the way runtime.ReadMemStats does.
	mem := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(mem)
	p.gauge("swdual_process_heap_inuse_bytes", "Bytes in in-use heap spans (live objects plus unused space inside them).", float64(mem[0].Value.Uint64()+mem[1].Value.Uint64()))
	p.counter("swdual_process_gc_pauses_total", "Completed GC cycles, each with a stop-the-world pause.", mem[2].Value.Uint64())
	p.gauge("swdual_process_db_mapped_bytes", "Bytes of database file memory-mapped into this process (0 when heap-backed).", float64(g.cfg.DBMappedBytes))

	p.labeledHeader("swdual_worker_observed_gcups", "Live EWMA throughput per worker.", "gauge")
	for _, wr := range st.Workers {
		p.labeled("swdual_worker_observed_gcups", wr.Name, wr.ObservedGCUPS)
	}
	p.labeledHeader("swdual_worker_tasks_total", "Completed tasks per worker.", "counter")
	for _, wr := range st.Workers {
		p.labeled("swdual_worker_tasks_total", wr.Name, float64(wr.Tasks))
	}
}
