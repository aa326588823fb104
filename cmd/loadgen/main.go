// Command loadgen drives offered-load sweeps against a swdual gateway
// and reports goodput and latency percentiles as `go test -bench`-style
// result lines, one per offered-load level:
//
//	loadgen -offered 1,2,4,8 -requests 40
//
// With -url it sweeps an already-running gateway; without, it starts an
// in-process Searcher and Gateway over a synthetic database (-preset,
// -scale, -capacity, -queue) and sweeps that over loopback HTTP, so one
// command produces the whole goodput-vs-offered-load curve.
//
// Each offered-load level runs `offered` closed-loop clients sharing
// -requests attempts. Completions (200 and 206) count toward goodput;
// shed answers (429) are the gateway doing its job and are reported as
// a ratio, never as an error. Partial answers (206 — a degraded
// coordinator riding over dark ranges) are additionally reported as
// partial_ratio, so a chaos sweep shows how much of its goodput was
// degraded.
//
// Two plumbing modes serve shell-driven end-to-end tests:
//
//	loadgen -emit-request q.fasta        # print the /v1/search JSON body
//	loadgen -format-response < resp.json # render a response as CLI text
//
// -format-response prints the same "query <id>:" / "<seq> score <n>"
// lines the swdual CLI prints (minus worker attribution), so a gateway
// answer can be diffed against a local search.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"swdual"
	"swdual/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		url      = flag.String("url", "", "gateway base URL to sweep (empty = start an in-process gateway)")
		offered  = flag.String("offered", "1,2,4,8", "comma-separated offered-load levels (concurrent closed-loop clients)")
		requests = flag.Int("requests", 40, "request attempts per offered-load level")
		topK     = flag.Int("topk", 5, "hits requested per query")
		qPath    = flag.String("query", "", "query FASTA for the sweep (empty = synthetic)")
		preset   = flag.String("preset", "UniProt", "synthetic database preset for the in-process gateway")
		scale    = flag.Int("scale", 20000, "synthetic database scale divisor")
		qscale   = flag.Int("qscale", 400, "synthetic query scale divisor")
		cpus     = flag.Int("cpus", 1, "CPU workers of the in-process gateway")
		gpus     = flag.Int("gpus", 1, "GPU workers of the in-process gateway")
		capacity = flag.Int("capacity", 2, "gateway capacity of the in-process gateway")
		queue    = flag.Int("queue", 2, "gateway queue of the in-process gateway (negative = none)")

		emitRequest = flag.String("emit-request", "", "print the /v1/search JSON body for this query FASTA and exit")
		formatResp  = flag.Bool("format-response", false, "read a /v1/search JSON response on stdin, print CLI-style text, and exit")
	)
	flag.Parse()

	if *formatResp {
		if err := formatResponse(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *emitRequest != "" {
		body, err := requestBody(*emitRequest, *topK)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(body)
		return
	}

	var queries *swdual.Database
	var err error
	if *qPath != "" {
		queries, err = swdual.LoadFASTA(*qPath)
	} else {
		queries, err = swdual.GenerateQueries("standard", *qscale)
	}
	if err != nil {
		log.Fatal(err)
	}
	body, err := bodyFor(queries, *topK)
	if err != nil {
		log.Fatal(err)
	}

	base := *url
	if base == "" {
		db, err := swdual.GenerateDatabase(*preset, *scale)
		if err != nil {
			log.Fatal(err)
		}
		s, err := swdual.NewSearcher(db, swdual.Options{CPUs: *cpus, GPUs: *gpus, TopK: *topK})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		gw, err := swdual.NewGateway(s, swdual.Options{
			GatewayCapacity: *capacity, GatewayQueue: *queue,
			GatewayClientSlots: *capacity + max(*queue, 0), // the sweep is one "client"
		})
		if err != nil {
			log.Fatal(err)
		}
		defer gw.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		go gw.Serve(l)
		base = "http://" + l.Addr().String()
		fmt.Fprintf(os.Stderr, "in-process gateway on %s: %d sequences, capacity %d, queue %d\n",
			base, db.Len(), *capacity, *queue)
	}

	levels, err := parseLevels(*offered)
	if err != nil {
		log.Fatal(err)
	}
	// Warm the path once so connection setup and planner calibration do
	// not land in the first level's percentiles.
	if _, _, err := post(base, body); err != nil {
		log.Fatalf("warmup request: %v", err)
	}
	for _, level := range levels {
		res := sweep(base, body, level, *requests)
		// One go-bench-format line per level: every "<value> <unit>"
		// pair is a metric.
		fmt.Printf("BenchmarkGatewayLoad/offered=%d \t%8d\t%12.0f ns/op\t%8.2f goodput_rps\t%8.2f p50_ms\t%8.2f p99_ms\t%6.3f shed_ratio\t%6.3f partial_ratio\n",
			level, res.completed, res.meanNS, res.goodputRPS, res.p50ms, res.p99ms, res.shedRatio, res.partialRatio)
	}
}

// sweepResult aggregates one offered-load level.
type sweepResult struct {
	completed    int
	meanNS       float64
	goodputRPS   float64
	p50ms        float64
	p99ms        float64
	shedRatio    float64
	partialRatio float64
}

// sweep fires `attempts` requests from `level` closed-loop clients and
// folds the outcomes.
func sweep(base string, body []byte, level, attempts int) sweepResult {
	var (
		mu        sync.Mutex
		latencies []float64
		shed      int
		partial   int
	)
	work := make(chan struct{}, attempts)
	for i := 0; i < attempts; i++ {
		work <- struct{}{}
	}
	close(work)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < level; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				t0 := time.Now()
				code, _, err := post(base, body)
				if err != nil {
					log.Fatalf("request: %v", err)
				}
				mu.Lock()
				switch code {
				case http.StatusOK:
					latencies = append(latencies, time.Since(t0).Seconds())
				case http.StatusPartialContent:
					// A degraded answer is still goodput — the client got
					// hits — but it is counted separately so the sweep
					// shows the partial share.
					latencies = append(latencies, time.Since(t0).Seconds())
					partial++
				case http.StatusTooManyRequests:
					shed++
				default:
					log.Fatalf("request answered %d", code)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	res := sweepResult{
		completed:    len(latencies),
		shedRatio:    float64(shed) / float64(attempts),
		partialRatio: float64(partial) / float64(attempts),
	}
	if wall > 0 {
		res.goodputRPS = float64(len(latencies)) / wall
	}
	if len(latencies) > 0 {
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.meanNS = sum / float64(len(latencies)) * 1e9
		res.p50ms = stats.Percentile(latencies, 50) * 1e3
		res.p99ms = stats.Percentile(latencies, 99) * 1e3
	}
	return res
}

func post(base string, body []byte) (int, []byte, error) {
	resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

func parseLevels(spec string) ([]int, error) {
	var levels []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad offered level %q", f)
		}
		levels = append(levels, n)
	}
	return levels, nil
}

// requestBody renders the /v1/search JSON body for a query FASTA file.
func requestBody(path string, topK int) ([]byte, error) {
	queries, err := swdual.LoadFASTA(path)
	if err != nil {
		return nil, err
	}
	return bodyFor(queries, topK)
}

func bodyFor(queries *swdual.Database, topK int) ([]byte, error) {
	type query struct {
		ID       string `json:"id"`
		Residues string `json:"residues"`
	}
	req := struct {
		Queries []query `json:"queries"`
		TopK    int     `json:"top_k,omitempty"`
	}{TopK: topK}
	for i := 0; i < queries.Len(); i++ {
		id, residues := queries.Sequence(i)
		req.Queries = append(req.Queries, query{ID: id, Residues: residues})
	}
	return json.Marshal(req)
}

// formatResponse renders a /v1/search JSON response in the swdual CLI's
// text shape (minus worker attribution), so gateway answers diff
// cleanly against local searches.
func formatResponse(r io.Reader, w io.Writer) error {
	var resp struct {
		Results []struct {
			ID   string `json:"id"`
			Hits []struct {
				SeqID string `json:"seq_id"`
				Score int    `json:"score"`
			} `json:"hits"`
		} `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Results) == 0 {
		return fmt.Errorf("response has no results")
	}
	for _, q := range resp.Results {
		fmt.Fprintf(w, "query %s:\n", q.ID)
		for _, h := range q.Hits {
			fmt.Fprintf(w, "  %-24s score %5d\n", h.SeqID, h.Score)
		}
	}
	return nil
}
