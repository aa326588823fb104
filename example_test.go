package swdual_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"swdual"
)

// Example aligns two sequences, then stands up a persistent Searcher
// over a four-subject database and runs two searches through it on a
// pool of two CPU workers.
func Example() {
	// Pairwise local alignment with traceback (the paper's Figure 1
	// operation, with affine gaps).
	al, err := swdual.AlignPair(
		"MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFKALVLIAFAQYLQQ",
		"MKWVTALISLLFLFSSAYSRGVFRRDAHKSEVNHRFKDLGEENFKALVLIAFAQYLQQ",
		swdual.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pairwise score %d, identity %.1f%%, CIGAR %s\n", al.Score, 100*al.Identity, al.CIGAR)
	fmt.Println(al.Text)

	// A persistent search engine: the database is prepared once and the
	// two CPU workers stay alive between searches; each request is
	// scheduled across them by the dual-approximation scheduler, and a
	// lone query on the idle pool runs as one task per database half.
	db, err := swdual.FromSequences(
		[]string{"albumin-like", "kinase-like", "random-1", "random-2"},
		[]string{
			"MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFKALVLIAFAQYLQQ",
			"MGSNKSKPKDASQRRRSLEPAENVHGAGGGAFPASQTPSKPASADGHRGPSAAFAPAAAE",
			"ARNDCQEGHILKMFPSTWYVARNDCQEGHILKMFPSTWYV",
			"VYWTSPFMKLIHEQCNRADGVYWTSPFMKLIHEQCNRADG",
		})
	if err != nil {
		log.Fatal(err)
	}
	searcher, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=2", TopK: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer searcher.Close()

	for _, q := range []struct{ id, residues string }{
		{"q-albumin", "MKWVTALISLLFLFSSAYSRGVFRRDAHKSEVNHRFKDLGEENFK"},
		{"q-kinase", "MGSNKSKPKDASQRRRSLEPAENVHGAGGGAFPASQTPSKPASAD"},
	} {
		queries, err := swdual.FromSequences([]string{q.id}, []string{q.residues})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := searcher.Search(context.Background(), queries, swdual.SearchOptions{})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rep.Results {
			fmt.Printf("query %s:\n", r.QueryID)
			for _, h := range r.Hits {
				fmt.Printf("  %-14s score %d\n", h.SeqID, h.Score)
			}
		}
	}

	// Both searches shared one preparation pass and one worker pool.
	st := searcher.Stats()
	fmt.Printf("searches %d, preparation passes %d, workers started %d\n",
		st.Searches, st.Prepared, st.WorkersStarted)
	// Output:
	// pairwise score 265, identity 94.8%, CIGAR 5M1D52M
	// Query     1 MKWVT-FISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFKALVLIAFAQYLQQ 57
	//             |||||  ||||||||||||||||||||||||| |||||||||||||||||||||||||
	// Sbjct     1 MKWVTALISLLFLFSSAYSRGVFRRDAHKSEVNHRFKDLGEENFKALVLIAFAQYLQQ 58
	//
	// query q-albumin:
	//   albumin-like   score 205
	//   random-1       score 18
	//   random-2       score 18
	// query q-kinase:
	//   kinase-like    score 232
	//   albumin-like   score 19
	//   random-1       score 15
	// searches 2, preparation passes 1, workers started 2
}

// TestReadmeQuickstartIsExample: the README's Quickstart snippet is
// Example's body, so the code it shows is the code go test runs.
func TestReadmeQuickstartIsExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, quickstart, _ := strings.Cut(string(readme), "## Quickstart\n")
	_, snippet, _ := strings.Cut(quickstart, "```go\n")
	snippet, _, _ = strings.Cut(snippet, "```\n")
	_, body, _ := strings.Cut(string(src), "\nfunc Example() {\n")
	body, _, _ = strings.Cut(body, "\t// Output:\n")
	var want strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		want.WriteString(strings.TrimPrefix(line, "\t"))
	}
	if snippet == "" || snippet != want.String() {
		t.Fatalf("README's Quickstart snippet is not Example's body; paste this:\n%s", want.String())
	}
}

// ExampleNewSearcher is the paper's core experiment at laptop scale: a
// persistent Searcher over a scaled synthetic UniProt serves the
// standard 40-query set, first as one request, then as eight concurrent
// clients whose queries coalesce into shared scheduling waves; the same
// search is then planned at full paper scale (Table IV).
func ExampleNewSearcher() {
	// 1/2000-scale UniProt (same length distribution) and 1/50-scale
	// query lengths run the whole pipeline with real alignment kernels
	// in a fraction of a second.
	db, err := swdual.GenerateDatabase("UniProt", 2000)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d sequences, %d residues\n", db.Len(), db.TotalResidues())
	fmt.Printf("queries:  %d sequences, %d residues\n", queries.Len(), queries.TotalResidues())

	// The database is prepared once; the 8 CPU workers live for every
	// request below.
	searcher, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=8", TopK: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer searcher.Close()

	rep, err := searcher.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top hit per query (first 10):")
	for _, r := range rep.Results[:10] {
		fmt.Printf("  %-14s -> %s score %d\n", r.QueryID, r.Hits[0].SeqID, r.Hits[0].Score)
	}
	fmt.Printf("%d cells\n", rep.Cells)

	// Eight concurrent clients share the Searcher; requests that arrive
	// while every worker is busy are scheduled as one wave.
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := swdual.GenerateQueries("standard", 100+i)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := searcher.Search(context.Background(), q, swdual.SearchOptions{}); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	st := searcher.Stats()
	fmt.Printf("served %d searches (%d queries)\n", st.Searches, st.Queries)
	fmt.Printf("preparation passes: %d (database loaded once), workers started: %d\n",
		st.Prepared, st.WorkersStarted)

	// The same search planned at full paper scale (537,505 sequences, 8
	// workers: 4 modelled Tesla C2050 GPUs + 4 CPUs).
	plan, err := swdual.PaperPlatformPlan("UniProt", "standard", 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper-scale plan (8 workers): makespan %.2f s, %.2f GCUPS, idle %.2f%%\n",
		plan.Makespan, plan.GCUPS, 100*plan.IdleFraction)
	fmt.Println("paper reports 142.98 s / 136.06 GCUPS for this configuration (Table IV)")
	// Output:
	// database: 269 sequences, 91580 residues
	// queries:  40 sequences, 2023 residues
	// top hit per query (first 10):
	//   query|00|len4  -> UniProt1|000006 score 18
	//   query|01|len4  -> UniProt1|000069 score 19
	//   query|02|len7  -> UniProt1|000027 score 24
	//   query|03|len9  -> UniProt1|000069 score 31
	//   query|04|len12 -> UniProt1|000155 score 31
	//   query|05|len14 -> UniProt1|000257 score 29
	//   query|06|len17 -> UniProt1|000048 score 33
	//   query|07|len19 -> UniProt1|000045 score 33
	//   query|08|len22 -> UniProt1|000051 score 39
	//   query|09|len24 -> UniProt1|000167 score 36
	// 185266340 cells
	// served 9 searches (360 queries)
	// preparation passes: 1 (database loaded once), workers started: 8
	// paper-scale plan (8 workers): makespan 153.61 s, 128.45 GCUPS, idle 0.75%
	// paper reports 142.98 s / 136.06 GCUPS for this configuration (Table IV)
}

// ExampleSearch is the paper's Table V story: the scheduler must handle
// query sets of similar lengths (homogeneous) and wildly different ones
// (heterogeneous) equally well. Each set is searched one-shot at small
// scale, then planned on the paper-scale GPU + CPU model beside the
// paper's times.
func ExampleSearch() {
	db, err := swdual.GenerateDatabase("UniProt", 4000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d sequences, %d residues\n", db.Len(), db.TotalResidues())

	paper := map[string][3]float64{ // workers 2, 4, 8 (Table V)
		"homogeneous":   {998.27, 484.74, 249.69},
		"heterogeneous": {3554.36, 1785.73, 908.45},
	}
	for _, kind := range []string{"homogeneous", "heterogeneous"} {
		queries, err := swdual.GenerateQueries(kind, 400)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := swdual.Search(db, queries, swdual.Options{Pool: "cpu=4", TopK: 1})
		if err != nil {
			log.Fatal(err)
		}
		last := rep.Results[len(rep.Results)-1]
		fmt.Printf("%s set (scaled, searched): %d queries, %d cells; top hit of %s: %s score %d\n",
			kind, len(rep.Results), rep.Cells, last.QueryID, last.Hits[0].SeqID, last.Hits[0].Score)
		for wi, w := range []int{2, 4, 8} {
			plan, err := swdual.PaperPlatformPlan("UniProt", kind, w)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  paper scale, %d workers: modeled %8.2f s (paper %8.2f s), %6.2f GCUPS, idle %.2f%%\n",
				w, plan.Makespan, paper[kind][wi], plan.GCUPS, 100*plan.IdleFraction)
		}
	}
	// Output:
	// database: 135 sequences, 45553 residues
	// homogeneous set (scaled, searched): 40 queries, 20772168 cells; top hit of query|39|len12: UniProt1|000005 score 27
	//   paper scale, 2 workers: modeled  1124.13 s (paper   998.27 s),  32.70 GCUPS, idle 0.00%
	//   paper scale, 4 workers: modeled   450.60 s (paper   484.74 s),  81.58 GCUPS, idle 0.01%
	//   paper scale, 8 workers: modeled   297.63 s (paper   249.69 s), 123.50 GCUPS, idle 11.02%
	// heterogeneous set (scaled, searched): 40 queries, 79626644 cells; top hit of query|39|len88: UniProt1|000027 score 50
	//   paper scale, 2 workers: modeled  4093.84 s (paper  3554.36 s),  33.29 GCUPS, idle 0.08%
	//   paper scale, 4 workers: modeled  1642.76 s (paper  1785.73 s),  82.95 GCUPS, idle 0.44%
	//   paper scale, 8 workers: modeled  1031.19 s (paper   908.45 s), 132.15 GCUPS, idle 1.17%
}

// ExamplePaperPlatformPlan is a close-up of the paper's core
// contribution: the UniProt search planned on the paper-scale platform
// model by the dual-approximation scheduler, its Gantt chart and CPU/GPU
// split, and its makespan beside the certified lower bound — the "almost
// no idle time" story of §V.A. Then the Karlin-Altschul statistics that
// give a reported score its significance.
func ExamplePaperPlatformPlan() {
	for _, workers := range []int{2, 4, 8} {
		plan, err := swdual.PaperPlatformPlan("UniProt", "standard", workers)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== UniProt, 40 standard queries, %d workers ===\n", workers)
		fmt.Printf("algorithm      %s\n", plan.Algorithm)
		fmt.Printf("makespan       %8.2f s   (certified lower bound %.2f s, ratio %.3f)\n",
			plan.Makespan, plan.LowerBound, plan.Makespan/plan.LowerBound)
		fmt.Printf("throughput     %8.2f GCUPS\n", plan.GCUPS)
		fmt.Printf("idle fraction  %8.2f %%\n", 100*plan.IdleFraction)
		fmt.Print(plan.Gantt)
	}

	// The same planning on a heterogeneous query set: the scheduler must
	// place the few enormous queries (up to 35,213 residues) on GPUs and
	// backfill the CPUs with small ones (§V.C).
	plan, err := swdual.PaperPlatformPlan("UniProt", "heterogeneous", 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== heterogeneous query set (lengths 4..35213), 8 workers ===")
	fmt.Printf("makespan %.2f s, %.2f GCUPS, idle %.2f%%\n",
		plan.Makespan, plan.GCUPS, 100*plan.IdleFraction)
	fmt.Print(plan.Gantt)

	// Significance statistics for reported scores (Karlin-Altschul).
	stats, err := swdual.NewScoreStats(swdual.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("score statistics: lambda=%.3f K=%.3f gapped=%v\n", stats.Lambda, stats.K, stats.Gapped)
	fmt.Printf("a raw score of 250 on a 350-residue query vs UniProt (1.93e8 residues): %.1f bits, E=%.2g\n",
		stats.BitScore(250), stats.EValue(250, 350, 193_000_000))
	fmt.Printf("significance threshold at E=1e-3: raw score >= %d\n",
		stats.ScoreThreshold(1e-3, 350, 193_000_000))
	// Output:
	// === UniProt, 40 standard queries, 2 workers ===
	// algorithm      dual-2approx
	// makespan         611.20 s   (certified lower bound 413.25 s, ratio 1.479)
	// throughput        32.28 GCUPS
	// idle fraction      0.06 %
	// dual-2approx: makespan 611.197, idle 0.1%
	// GPU0  |rrttttuuuvvvwwwwxxxxyyyyzzzzaaaabbbbcccccdddddeeeefffffgggggghhhhhjjjjjkkkkkkllllllmmmmmmnnnnnn.|
	// CPU0  |bcddeeeffgggghhhiiiiijjjjkkkkkllllllmmmmmmnnnnnnoooooooppppppppqqqqqqqqssssssssiiiiiiiiiiiiiiiii|
	// === UniProt, 40 standard queries, 4 workers ===
	// algorithm      dual-2approx
	// makespan         246.27 s   (certified lower bound 206.62 s, ratio 1.192)
	// throughput        80.12 GCUPS
	// idle fraction      0.41 %
	// dual-2approx: makespan 246.275, idle 0.4%
	// GPU0  |jjjjrrrrrrruuuuuuuuxxxxxxxxxbbbbbbbbbbbccccccccccckkkkkkkkkkkkkkkmmmmmmmmmmmmmmmnnnnnnnnnnnnnnn.|
	// GPU1  |oooooqqqqqqqvvvvvvvvvwwwwwwwwwdddddddddddeeeeeeeeeeeehhhhhhhhhhhhhhjjjjjjjjjjjjjjllllllllllllll.|
	// GPU2  |mmmmmppppppsssssssstttttttyyyyyyyyyyzzzzzzzzzzaaaaaaaaaaaffffffffffffgggggggggggggiiiiiiiiiiiiii|
	// CPU0  |abbccccddddeeeeeefffffffgggggggghhhhhhhhhhiiiiiiiiiikkkkkkkkkkkkkllllllllllllllnnnnnnnnnnnnnnnn.|
	// === UniProt, 40 standard queries, 8 workers ===
	// algorithm      dual-2approx
	// makespan         153.61 s   (certified lower bound 103.31 s, ratio 1.487)
	// throughput       128.45 GCUPS
	// idle fraction      0.75 %
	// dual-2approx: makespan 153.612, idle 0.7%
	// GPU0  |mmmmmmmmrrrrrrrrrrrzzzzzzzzzzzzzzzzzaaaaaaaaaaaaaaaaeeeeeeeeeeeeeeeeeeeekkkkkkkkkkkkkkkkkkkkkkk.|
	// GPU1  |wwwwwwwwwwwwwwbbbbbbbbbbbbbbbbbcccccccccccccccccchhhhhhhhhhhhhhhhhhhhhnnnnnnnnnnnnnnnnnnnnnnnnn.|
	// GPU2  |ssssssssssssvvvvvvvvvvvvvjjjjjjjjjjjjjjjjjjjjjjjlllllllllllllllllllllllmmmmmmmmmmmmmmmmmmmmmmmm.|
	// GPU3  |xxxxxxxxxxxxxxxddddddddddddddddddffffffffffffffffffffgggggggggggggggggggggiiiiiiiiiiiiiiiiiiiii.|
	// CPU0  |fffffffffffiiiiiiiiiiiiiiiillllllllllllllllllllllyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy.|
	// CPU1  |cccccddddddddkkkkkkkkkkkkkkkkkkkkpppppppppppppppppppppppppppppqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq..|
	// CPU2  |aaggggggggggggghhhhhhhhhhhhhhnnnnnnnnnnnnnnnnnnnnnnnnnnuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuu..|
	// CPU3  |bbbeeeeeeeeeejjjjjjjjjjjjjjjjjjoooooooooooooooooooooooooooottttttttttttttttttttttttttttttttttttt|
	// === heterogeneous query set (lengths 4..35213), 8 workers ===
	// makespan 1031.19 s, 132.15 GCUPS, idle 1.17%
	// dual-2approx: makespan 1031.192, idle 1.2%
	// GPU0  |xxxxxxxxxxxxxxzzzzzzzzzzzzzzzzzeeeeeeeeeeeeeeeeeeegggggggggggggggggggggllllllllllllllllllllllll.|
	// GPU1  |vvvvvvvvvvvvvaaaaaaaaaaaaaaaaadddddddddddddddddddhhhhhhhhhhhhhhhhhhhhhmmmmmmmmmmmmmmmmmmmmmmmmm.|
	// GPU2  |sssssssssssbbbbbbbbbbbbbbbbbbccccccccccccccccccjjjjjjjjjjjjjjjjjjjjjjjnnnnnnnnnnnnnnnnnnnnnnnnn.|
	// GPU3  |wwwwwwwwwwwwwwyyyyyyyyyyyyyyyfffffffffffffffffffffiiiiiiiiiiiiiiiiiiiiiikkkkkkkkkkkkkkkkkkkkkkk.|
	// CPU0  |ddddddfffffffffjjjjjjjjjjjjjjjjjjmmmmmmmmmmmmmmmmmmmmmmmmttttttttttttttttttttttttttttttttttttt..|
	// CPU1  |gggggggggggkkkkkkkkkkkkkkkkkkkknnnnnnnnnnnnnnnnnnnnnnnnnuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuu|
	// CPU2  |bbhhhhhhhhhhhhhiiiiiiiiiiiiiiiiooooooooooooooooooooooooooorrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrr....|
	// CPU3  |cccceeeeeeellllllllllllllllllllllpppppppppppppppppppppppppppppqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq..|
	// score statistics: lambda=0.255 K=0.035 gapped=true
	// a raw score of 250 on a 350-residue query vs UniProt (1.93e8 residues): 96.8 bits, E=4.9e-19
	// significance threshold at E=1e-3: raw score >= 112
}

// ExampleServeShard is the paper's §IV master–slave run over real
// sockets. Two shard servers each serve one range of balanced residues
// of the same database over the wire protocol; a coordinator, the
// master, dials them (checking each range's checksum and scoring),
// scatters every search and gathers hits identical to a local
// unsharded search. Only queries and hits cross the wire. Here one
// program plays every role on loopback listeners; in production each
// ServeShard is its own process (swdual -serve) on its own machine.
func ExampleServeShard() {
	const shardCount = 2
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		log.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=2", TopK: 5}

	// The shard servers, stand-ins for `swdual -db db.fasta -serve ADDR
	// -shard-index i -shard-count 2`.
	var listeners []net.Listener
	served := make(chan error, shardCount)
	for i := range shardCount {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners = append(listeners, l)
		go func() { served <- swdual.ServeShard(l, db, i, shardCount, opt) }()
	}

	// The coordinator: a Searcher whose ranges live behind those
	// addresses, one server per range (list several per range and the
	// range survives a server dying). It loads the database too: that
	// is what lets it check every server's range before the first query.
	coordOpt := opt
	for _, l := range listeners {
		coordOpt.ReplicaShards = append(coordOpt.ReplicaShards, []string{l.Addr().String()})
	}
	coordinator, err := swdual.NewSearcher(db, coordOpt)
	if err != nil {
		log.Fatal(err)
	}
	local, err := swdual.NewSearcher(db, opt) // the unsharded reference
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	remoteRep, err := coordinator.Search(ctx, queries, swdual.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	localRep, err := local.Search(ctx, queries, swdual.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("database: %d sequences, %d residues, %d remote shards\n",
		db.Len(), db.TotalResidues(), coordinator.Shards())
	for _, r := range remoteRep.Results[:3] {
		fmt.Printf("query %s:\n", r.QueryID)
		for _, h := range r.Hits {
			fmt.Printf("  %s score %d (global seq %d)\n", h.SeqID, h.Score, h.SeqIndex)
		}
	}

	// Every hit of every query must match the local engine exactly: the
	// wire moves queries and hits, never approximated scores.
	differing := 0
	for qi := range remoteRep.Results {
		if !slices.Equal(remoteRep.Results[qi].Hits, localRep.Results[qi].Hits) {
			differing++
		}
	}
	fmt.Printf("queries whose hits differ from the local unsharded engine: %d\n", differing)
	fmt.Printf("coordinator checksum %08x == local checksum %08x\n",
		coordinator.Checksum(), local.Checksum())

	coordinator.Close()
	local.Close()
	for _, l := range listeners {
		l.Close()
	}
	for range shardCount {
		if err := <-served; err != nil {
			log.Fatal(err)
		}
	}
	// Output:
	// database: 27 sequences, 10138 residues, 2 remote shards
	// query query|00|len4:
	//   UniProt1|000006 score 18 (global seq 6)
	//   UniProt1|000020 score 17 (global seq 20)
	//   UniProt1|000000 score 15 (global seq 0)
	//   UniProt1|000012 score 15 (global seq 12)
	//   UniProt1|000013 score 15 (global seq 13)
	// query query|01|len4:
	//   UniProt1|000005 score 13 (global seq 5)
	//   UniProt1|000012 score 13 (global seq 12)
	//   UniProt1|000000 score 12 (global seq 0)
	//   UniProt1|000003 score 12 (global seq 3)
	//   UniProt1|000006 score 12 (global seq 6)
	// query query|02|len4:
	//   UniProt1|000001 score 14 (global seq 1)
	//   UniProt1|000006 score 14 (global seq 6)
	//   UniProt1|000012 score 13 (global seq 12)
	//   UniProt1|000022 score 13 (global seq 22)
	//   UniProt1|000003 score 12 (global seq 3)
	// queries whose hits differ from the local unsharded engine: 0
	// coordinator checksum d80367ff == local checksum d80367ff
}

// ExampleNewGateway puts the HTTP/JSON front door with admission control
// over a Searcher, queries it as any HTTP client would, then offers it
// a burst from one client. One client may hold a quarter of the
// gateway's slots (executing plus waiting); past that its requests are
// shed at once with 429 and a Retry-After hint. How many are shed
// depends on the host's GOMAXPROCS and on how fast the admitted ones
// finish, so the example checks the outcomes instead of printing them.
func ExampleNewGateway() {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		log.Fatal(err)
	}
	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=3", TopK: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	gw, err := swdual.NewGateway(s, swdual.Options{})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- gw.Serve(l) }()
	url := "http://" + l.Addr().String() + "/v1/search"
	fmt.Printf("gateway serving %d sequences\n", db.Len())

	// A search over HTTP: queries as JSON, hits as JSON.
	id, residues := queries.Sequence(0)
	body, err := json.Marshal(map[string]any{
		"queries": []map[string]string{{"id": id, "residues": residues}},
		"top_k":   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var result struct {
		Results []struct {
			ID   string `json:"id"`
			Hits []struct {
				SeqID string `json:"seq_id"`
				Score int    `json:"score"`
			} `json:"hits"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	for _, r := range result.Results {
		fmt.Printf("query %s:\n", r.ID)
		for _, h := range r.Hits {
			fmt.Printf("  %s score %d\n", h.SeqID, h.Score)
		}
	}

	// A burst of 8 concurrent searches from one client.
	const burst = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	retryAfter := true // every 429 names a backoff
	for range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				log.Fatal(err)
			}
			req.Header.Set("X-API-Key", "example-client")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				log.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			statuses[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				retryAfter = false
			}
		}()
	}
	wg.Wait()
	answered := statuses[http.StatusOK] + statuses[http.StatusTooManyRequests]
	fmt.Println("every burst answer is 200 or 429:", answered == burst && retryAfter)
	c := gw.Counters()
	fmt.Println("the counters tally the answers:",
		c.Admitted == c.Completed && c.Admitted == uint64(1+statuses[http.StatusOK]) &&
			c.ShedQueue+c.ShedClient == uint64(statuses[http.StatusTooManyRequests]))

	// Drain the gateway, then stop serving; the Searcher outlives both.
	gw.Close()
	http.DefaultClient.CloseIdleConnections()
	l.Close()
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	// Output:
	// gateway serving 27 sequences
	// query query|00|len4:
	//   UniProt1|000006 score 18
	//   UniProt1|000020 score 17
	//   UniProt1|000000 score 15
	// every burst answer is 200 or 429: true
	// the counters tally the answers: true
}
