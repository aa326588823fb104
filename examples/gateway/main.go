// Gateway: put the HTTP/JSON front door with admission control over a
// Searcher, query it like any HTTP client would, and offer it a burst
// from one client to see what the gateway, sized from this host, did
// with each request — every admitted search returns the same hits a
// direct Searcher.Search produces.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"

	"swdual"
)

func main() {
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
	defer gw.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go gw.Serve(l)
	base := "http://" + l.Addr().String()
	fmt.Printf("gateway serving %d sequences on %s\n\n", db.Len(), base)

	// A search over HTTP: queries as JSON, hits as JSON.
	id, residues := queries.Sequence(0)
	body, _ := json.Marshal(map[string]any{
		"queries": []map[string]string{{"id": id, "residues": residues}},
		"top_k":   3,
	})
	resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
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
			fmt.Printf("  %-24s score %5d\n", h.SeqID, h.Score)
		}
	}

	// A burst from one client. One client may hold a quarter of the
	// gateway's slots (executing plus waiting); past that its requests
	// are shed immediately with 429 and a Retry-After backoff hint
	// instead of queueing without bound. How many that is depends on
	// the host's GOMAXPROCS and on how fast the admitted ones finish.
	const burst = 8
	fmt.Printf("\noffering %d concurrent searches from one client:\n", burst)
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[string]int{}
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, base+"/v1/search", bytes.NewReader(body))
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
			key := resp.Status
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				key += " (Retry-After " + ra + "s)"
			}
			mu.Lock()
			outcomes[key]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	for status, n := range outcomes {
		fmt.Printf("  %2d × %s\n", n, status)
	}

	c := gw.Counters()
	fmt.Printf("\ngateway counters: admitted %d, completed %d, shed %d (queue) + %d (client)\n",
		c.Admitted, c.Completed, c.ShedQueue, c.ShedClient)
}
