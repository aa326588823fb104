// Command swdual searches a query set against a sequence database on a
// pool of CPU workers, using the paper's dual-approximation scheduler;
// -plan schedules the paper's modelled CPU + GPU platform instead.
//
// Usage:
//
//	swdual -db db.fasta -query q.fasta              # one CPU worker per GOMAXPROCS
//	swdual -db db.fasta -query q.fasta -pool cpu=4
//	swdual -db db.swdb -query q.fasta -policy self-scheduling -topk 5
//	swdual -db db.fasta -query q.fasta -plan -pool cpu=2,gpu=2  # schedule only
//	swdual -db db.fasta -gateway :8080              # HTTP/JSON front door
//
// The gateway is how clients search a running server. It serves POST
// /v1/search (JSON queries), GET /v1/stats, /healthz and /metrics, with
// bounded-queue admission control sized from the host: past
// 2×GOMAXPROCS executing and four times that many waiting requests,
// arrivals are shed immediately with 429 and a Retry-After estimated
// from live search latency. Add -replica-shards to put the same HTTP
// surface over a clustered database.
//
// Cluster serve distributes the database across processes: each -serve
// process holds the same database and serves one range of balanced
// residues over the wire protocol, and a coordinator scatters every
// query over the network, gathering hits byte-identical to a local
// search; it refuses a server whose -topk is lower or whose scoring
// differs. -replica-shards names the servers: semicolons separate
// ranges, commas separate interchangeable replicas of one range.
//
//	swdual -db db.fasta -serve :4016 -shard-index 0 -shard-count 2
//	swdual -db db.fasta -serve :4017 -shard-index 1 -shard-count 2
//	swdual -db db.fasta -query q.fasta -replica-shards 'host:4016;host:4017'
//
// Without -shard-index and -shard-count, -serve serves the whole
// database as a one-range cluster (-replica-shards host:4016). The
// coordinator re-dials a dead server in the background; when a range
// is held by several servers it also fails over on lost connections to
// a sibling, so a search survives any one replica dying per range:
//
//	swdual -db db.fasta -query q.fasta \
//	    -replica-shards 'a:4016,b:4016;a:4017,b:4017' -dial-timeout 5s
//
// A coordinator may start before its servers: a server it cannot reach
// is dialed again in the background, while one that answers with
// another database, a lower -topk or other scoring is refused (exit
// status 1, naming the range and the address). A range whose every
// server is down, at the start or later, is skipped, not fatal: the
// search prints the other ranges' hits (with -evalue, E-values over the
// residues searched), writes the coverage to stderr — ranges and
// residues searched, and each skipped range with its reason — and exits
// with status 3. A -gateway coordinator answers such a search 206 with
// a coverage block. Only every range dark fails the search.
//
// A -db path ending in .swdb is memory-mapped read-only rather than
// parsed: startup costs only the header and index validation, residues
// stay off the Go heap, and a fleet of shard or replica servers mapping
// the same file on one host holds one physical copy of the corpus in
// the page cache between them.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"

	"swdual"
	"swdual/internal/master"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swdual: ")
	var (
		dbPath   = flag.String("db", "", "database file (.fasta/.fa parsed into memory; .swdb memory-mapped read-only — zero-copy, and every process mapping the same file on a host shares one physical copy)")
		qPath    = flag.String("query", "", "query file (.fasta/.fa or .swdb binary)")
		pool     = flag.String("pool", "", "worker pool spec: backend=count pairs, e.g. cpu=4 (default: one cpu worker per GOMAXPROCS); a search runs cpu (inter-sequence) workers only, -plan also schedules gpu (modelled Tesla C2050), e.g. cpu=2,gpu=2")
		topk     = flag.Int("topk", 10, "hits reported per query")
		matrix   = flag.String("matrix", "BLOSUM62", "substitution matrix")
		gapS     = flag.Int("gapstart", 10, "gap start penalty Gs")
		gapE     = flag.Int("gapextend", 2, "gap extend penalty Ge")
		policy   = flag.String("policy", "dual-approx", "allocation policy: dual-approx (SWDUAL) | self-scheduling | round-robin")
		planOnly = flag.Bool("plan", false, "print the schedule -policy plans for -pool on the paper's modeled platform instead of searching")
		evalues  = flag.Bool("evalue", false, "report bit scores and E-values next to each hit")
		serve    = flag.String("serve", "", "serve range -shard-index of -shard-count of the database over the wire protocol on this address, for a -replica-shards coordinator (clients use -gateway)")
		cache    = flag.Bool("cache", false, "cache search results: repeated queries are answered without a scheduling wave (hits stay byte-identical)")
		cacheSz  = flag.Int("cache-size", 0, "max cached search fingerprints with -cache (0 = default 1024)")

		gatewayAddr = flag.String("gateway", "", "serve the database over HTTP/JSON on this address (POST /v1/search, GET /v1/stats, /healthz, /metrics), with admission sized from the host: 2×GOMAXPROCS executing and four times that many waiting searches, a quarter of all slots per client, the rest shed with 429")

		shardIndex = flag.Int("shard-index", 0, "which range -serve exposes")
		shardCount = flag.Int("shard-count", 1, "how many ranges of balanced residues the database is split into for -serve (1 serves the whole database)")
		repShards  = flag.String("replica-shards", "", "shard servers to search as the coordinator: semicolons separate shard ranges, commas separate replicas of one range, e.g. 'a:4016;a:4017' or 'a:4016,b:4016;a:4017,b:4017' (each server runs -serve for its range)")
		dialTO     = flag.Duration("dial-timeout", 0, "bound on dialing one shard or replica server, TCP connect plus handshake (0 = default 10s)")
	)
	flag.Parse()

	opt := swdual.Options{
		Matrix:    *matrix,
		GapStart:  *gapS,
		GapExtend: *gapE,
		Pool:      *pool,
		TopK:      *topk,
		Policy:    *policy,
		Cache:     *cache,
		CacheSize: *cacheSz,
	}
	if *repShards != "" {
		for _, group := range strings.Split(*repShards, ";") {
			opt.ReplicaShards = append(opt.ReplicaShards, strings.Split(group, ","))
		}
	}
	opt.DialTimeout = *dialTO

	if *serve != "" && (len(opt.ReplicaShards) > 0 || *gatewayAddr != "") {
		log.Fatal("-serve runs a range server for a coordinator; to serve clients, run -gateway (with -replica-shards for a cluster)")
	}

	if *dbPath == "" {
		log.Fatal("-db is required")
	}
	poolName := cmp.Or(*pool, master.DefaultPool().String()) // as reported, never empty
	// A .swdb database is memory-mapped instead of copied: serve fleets
	// on one host share a single physical copy through the page cache.
	db, err := swdual.OpenDatabase(*dbPath)
	if err != nil {
		log.Fatalf("loading database: %v", err)
	}
	defer db.Close()

	if *serve != "" {
		l, err := net.Listen("tcp", *serve)
		if err != nil {
			fatal(err)
		}
		log.Printf("serving range %d/%d of %d sequences on %s with worker pool %s",
			*shardIndex, *shardCount, db.Len(), l.Addr(), poolName)
		if err := swdual.ServeShard(l, db, *shardIndex, *shardCount, opt); err != nil {
			fatal(err)
		}
		return
	}

	if *gatewayAddr != "" {
		s, err := swdual.NewSearcher(db, opt)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		gw, err := swdual.NewGateway(s, opt)
		if err != nil {
			fatal(err)
		}
		defer gw.Close()
		l, err := net.Listen("tcp", *gatewayAddr)
		if err != nil {
			fatal(err)
		}
		backend := "worker pool " + poolName
		if len(opt.ReplicaShards) > 0 {
			backend = fmt.Sprintf("%d shard server range(s)", len(opt.ReplicaShards))
		}
		log.Printf("gateway: %d sequences (checksum %08x) over HTTP on %s with %s",
			db.Len(), s.Checksum(), l.Addr(), backend)
		if err := gw.Serve(l); err != nil {
			fatal(err)
		}
		return
	}

	if *qPath == "" {
		log.Fatal("both -db and -query are required")
	}
	queries, err := swdual.OpenDatabase(*qPath)
	if err != nil {
		log.Fatalf("loading queries: %v", err)
	}
	defer queries.Close()
	if *planOnly {
		plan, err := swdual.Plan(db, queries, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pool: %s\nalgorithm: %s\nmodeled makespan: %.2f s (lower bound %.2f s)\nmodeled GCUPS: %.2f\nidle fraction: %.2f%%\n",
			poolName, plan.Algorithm, plan.Makespan, plan.LowerBound, plan.GCUPS, 100*plan.IdleFraction)
		for _, tp := range plan.Tasks {
			fmt.Printf("  q%02d (len %5d) -> %s%d  [%8.2f, %8.2f)\n",
				tp.QueryIndex, tp.QueryLen, tp.Kind, tp.PE, tp.Start, tp.End)
		}
		return
	}

	s, err := swdual.NewSearcher(db, opt)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	rep, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		fatal(err)
	}
	var stats *swdual.ScoreStats
	if *evalues {
		stats, err = swdual.NewScoreStats(opt)
		if err != nil {
			log.Fatalf("statistics unavailable: %v", err)
		}
	}
	// Karlin-Altschul's n is the size of the database searched, which
	// on a partial answer is the residues of the ranges that answered.
	searched := db.TotalResidues()
	if cov := rep.Coverage; cov != nil {
		searched = cov.ResiduesSearched
	}
	printResults(rep, queries, func(score, qlen int) string {
		if stats == nil {
			return ""
		}
		return fmt.Sprintf("  bits %7.1f  E %.3g", stats.BitScore(score), stats.EValue(score, qlen, searched))
	})
	// A coordinator's ranges each ran their own server's policy; only a
	// local pool ran -policy.
	ranPolicy := ""
	if len(opt.ReplicaShards) == 0 {
		ranPolicy = ", policy " + *policy
	}
	fmt.Printf("\n%d queries, %d cells, wall %v, %.3f GCUPS%s\n",
		len(rep.Results), rep.Cells, rep.Wall, rep.GCUPS, ranPolicy)
	if sc := rep.Schedule; sc != nil {
		fmt.Printf("wave planned makespan %.3f ms at measured rates (whole wave), idle %.2f%%\n", 1e3*sc.Makespan, 100*sc.IdleFraction())
	}
	if cov := rep.Coverage; cov != nil {
		// A partial answer is printed, but it is not the answer the
		// caller asked for: say what is missing and exit with status 3,
		// apart from the 1 of a failed search.
		eBasis := ""
		if stats != nil {
			eBasis = fmt.Sprintf("; E-values over the %d residues searched", cov.ResiduesSearched)
		}
		log.Printf("partial answer: searched %d of %d ranges, %.1f%% of residues (%d of %d)%s",
			cov.RangesSearched, cov.RangesTotal, 100*cov.Fraction(),
			cov.ResiduesSearched, cov.ResiduesTotal, eBasis)
		for _, sk := range cov.Skipped {
			log.Printf("skipped shard %d [%d,%d): %s", sk.Index, sk.Lo, sk.Hi, sk.Reason)
		}
		os.Exit(3)
	}
}

// fatal prints err and exits 1, with log's "swdual: " prefix in place
// of the one the library's errors start with.
func fatal(err error) {
	log.Fatal(strings.TrimPrefix(err.Error(), "swdual: "))
}

// printResults renders per-query hits; extra (optional) appends
// statistics columns computed from (score, query length).
func printResults(rep *swdual.Report, queries *swdual.Database, extra func(score, qlen int) string) {
	for qi, r := range rep.Results {
		if r.Worker != "" {
			fmt.Printf("query %s (worker %s):\n", r.QueryID, r.Worker)
		} else {
			fmt.Printf("query %s:\n", r.QueryID)
		}
		qlen := len(queries.Set().Seqs[qi].Residues)
		for _, h := range r.Hits {
			suffix := ""
			if extra != nil {
				suffix = extra(h.Score, qlen)
			}
			fmt.Printf("  %-24s score %5d%s\n", h.SeqID, h.Score, suffix)
		}
	}
}
