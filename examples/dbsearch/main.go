// dbsearch: the paper's core experiment at laptop scale — a persistent
// Searcher over a scaled synthetic UniProt serving the standard 40-query
// set, first as one request, then as eight concurrent clients whose
// queries coalesce into shared scheduling waves.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"swdual"
)

func main() {
	// 1/2000-scale UniProt (~269 sequences, same length distribution) and
	// 1/50-scale query lengths keep the run under a few seconds while
	// exercising the full pipeline with real alignment kernels.
	db, err := swdual.GenerateDatabase("UniProt", 2000)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d sequences, %d residues\n", db.Len(), db.TotalResidues())
	fmt.Printf("queries:  %d sequences, %d residues\n\n", queries.Len(), queries.TotalResidues())

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
		fmt.Printf("  %-22s -> %-18s score %4d  (on %s)\n",
			r.QueryID, r.Hits[0].SeqID, r.Hits[0].Score, r.Worker)
	}
	fmt.Printf("\nwall %v, %.3f native GCUPS, %d cells\n", rep.Wall, rep.GCUPS, rep.Cells)
	tasks := map[string]int{}
	for _, r := range rep.Results {
		tasks[r.Worker]++
	}
	fmt.Printf("tasks per worker: %v\n", tasks)
	if sc := rep.Schedule; sc != nil {
		fmt.Printf("wave planned makespan %.3f ms at measured rates (whole wave), idle %.2f%%\n\n", 1e3*sc.Makespan, 100*sc.IdleFraction())
	}

	// Eight concurrent clients hammer the same Searcher; requests landing
	// in the same batch window are scheduled as one wave.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, err := swdual.GenerateQueries("standard", 100+i)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := searcher.Search(context.Background(), q, swdual.SearchOptions{}); err != nil {
				log.Fatal(err)
			}
		}(i)
	}
	wg.Wait()
	st := searcher.Stats()
	fmt.Printf("served %d searches (%d queries) in %d waves, %d waves coalesced concurrent requests\n",
		st.Searches, st.Queries, st.Waves, st.BatchedWaves)
	fmt.Printf("preparation passes: %d (database loaded once), workers started: %d\n\n",
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
}
