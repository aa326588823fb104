// heterosets: reproduce the paper's Table V story — the scheduler must
// handle query sets of similar sizes (homogeneous) and wildly different
// sizes (heterogeneous) equally well. Runs a scaled CPU search for both
// sets and prints the paper-scale (modelled GPU + CPU) plans next to the
// paper's numbers.
package main

import (
	"fmt"
	"log"

	"swdual"
)

func main() {
	db, err := swdual.GenerateDatabase("UniProt", 4000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d sequences, %d residues\n\n", db.Len(), db.TotalResidues())

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
		fmt.Printf("%s set (scaled, functional): wall %v, %.3f GCUPS", kind, rep.Wall, rep.GCUPS)
		if sc := rep.Schedule; sc != nil {
			fmt.Printf(", idle %.2f%%", 100*sc.IdleFraction())
		}
		fmt.Println()
		for wi, w := range []int{2, 4, 8} {
			plan, err := swdual.PaperPlatformPlan("UniProt", kind, w)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  paper scale, %d workers: modeled %8.2f s (paper %8.2f s), %6.2f GCUPS, idle %.2f%%\n",
				w, plan.Makespan, paper[kind][wi], plan.GCUPS, 100*plan.IdleFraction)
		}
		fmt.Println()
	}
	fmt.Println("the scheduler keeps idle time low on both set shapes — the paper's §V.C claim")
}
