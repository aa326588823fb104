// Quickstart: align two sequences, then stand up a persistent Searcher
// over a tiny in-memory database and run two searches through it on a
// pool of 2 CPU workers.
package main

import (
	"context"
	"fmt"
	"log"

	"swdual"
)

func main() {
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
	// two CPU workers (SWIPE-style engine, each rated by its measured
	// task times) stay alive between searches; the dual-approximation
	// scheduler splits every request between them.
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
			fmt.Printf("query %s (executed on %s):\n", r.QueryID, r.Worker)
			for _, h := range r.Hits {
				fmt.Printf("  %-14s score %d\n", h.SeqID, h.Score)
			}
		}
	}

	// Both searches shared one preparation pass and one worker pool.
	st := searcher.Stats()
	fmt.Printf("\nsearches %d, preparation passes %d, workers started %d\n",
		st.Searches, st.Prepared, st.WorkersStarted)
}
