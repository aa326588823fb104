// Cluster serve: the scatter/gather over database ranges, distributed
// across processes — the paper's §IV master-slave model over real sockets, with
// the coordinator as master and the shard servers as the workers that
// "acquire the same sequences" locally, so only queries and results
// cross the wire. Every shard server holds the same database and serves
// one contiguous slice of it over the wire protocol; a coordinator
// splits the database the same way, dials each server (verifying each slice's
// checksum, so a server with skewed data is rejected), scatters every
// search across the wire, and gathers hits byte-identical to a local
// unsharded search — proven at the end against a local Searcher. The
// wire only joins the coordinator to its shard servers; clients reach
// the coordinator through the HTTP gateway (`swdual -gateway`, or
// swdual.NewGateway). One program plays all the roles here; in
// production each ServeShard call is its own process (`swdual -serve`)
// on its own machine.
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"swdual"
)

func main() {
	const shardCount = 2
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		log.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=2", TopK: 5, ShardSplit: "balanced"}

	// Shard servers: each serves its slice of the database on its own
	// listener — stand-ins for `swdual -db db.fasta -serve :401N
	// -shard-index i -shard-count 2` on separate machines.
	addrs := make([]string, shardCount)
	for i := 0; i < shardCount; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
		go func(i int, l net.Listener) {
			if err := swdual.ServeShard(l, db, i, shardCount, opt); err != nil {
				log.Printf("shard server %d: %v", i, err)
			}
		}(i, l)
	}

	// The coordinator: a Searcher whose shards live behind those
	// addresses, one server per range (list several per range and the
	// range survives a server dying). It still loads the database
	// locally — that is what lets it verify every server's slice
	// checksum before the first query.
	coordOpt := opt
	for _, addr := range addrs {
		coordOpt.ReplicaShards = append(coordOpt.ReplicaShards, []string{addr})
	}
	coordinator, err := swdual.NewSearcher(db, coordOpt)
	if err != nil {
		log.Fatal(err)
	}
	defer coordinator.Close()

	// The local reference: one unsharded engine over the same database.
	local, err := swdual.NewSearcher(db, opt)
	if err != nil {
		log.Fatal(err)
	}
	defer local.Close()

	ctx := context.Background()
	remoteRep, err := coordinator.Search(ctx, queries, swdual.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	localRep, err := local.Search(ctx, queries, swdual.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("database: %d sequences, %d residues, %d remote shards at %v\n\n",
		db.Len(), db.TotalResidues(), coordinator.Shards(), addrs)
	for _, r := range remoteRep.Results[:3] {
		fmt.Printf("query %s:\n", r.QueryID)
		for _, h := range r.Hits {
			fmt.Printf("  %-22s score %5d  (global seq %4d)\n", h.SeqID, h.Score, h.SeqIndex)
		}
	}

	// Every hit of every query must match the local engine exactly: the
	// wire protocol moves queries and hits, never scores approximated.
	mismatches := 0
	for qi := range remoteRep.Results {
		a, b := remoteRep.Results[qi].Hits, localRep.Results[qi].Hits
		if len(a) != len(b) {
			mismatches++
			continue
		}
		for hi := range a {
			if a[hi] != b[hi] {
				mismatches++
			}
		}
	}
	fmt.Printf("\nhits differing from the local unsharded engine: %d\n", mismatches)
	fmt.Printf("coordinator checksum %08x == local checksum %08x\n",
		coordinator.Checksum(), local.Checksum())
}
