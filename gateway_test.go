package swdual_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"

	"swdual"
)

// TestGatewayServesSearcher exercises the public Gateway surface: an
// HTTP search through NewGateway returns the same hits as a direct
// Searcher.Search, /healthz and /v1/stats answer, and Close drains and
// turns new requests into 503 while the Searcher stays usable.
func TestGatewayServesSearcher(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=2", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gw, err := swdual.NewGateway(s, swdual.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- gw.Serve(l) }()
	base := "http://" + l.Addr().String()

	want, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	type query struct {
		ID       string `json:"id"`
		Residues string `json:"residues"`
	}
	req := struct {
		Queries []query `json:"queries"`
	}{}
	for i := 0; i < queries.Len(); i++ {
		id, residues := queries.Sequence(i)
		req.Queries = append(req.Queries, query{ID: id, Residues: residues})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Results []struct {
			ID   string `json:"id"`
			Hits []struct {
				SeqIndex int    `json:"seq_index"`
				SeqID    string `json:"seq_id"`
				Score    int    `json:"score"`
			} `json:"hits"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search over HTTP: %d", resp.StatusCode)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results over HTTP, %d direct", len(got.Results), len(want.Results))
	}
	for qi := range want.Results {
		if got.Results[qi].ID != want.Results[qi].QueryID {
			t.Fatalf("query %d answered as %q, want %q", qi, got.Results[qi].ID, want.Results[qi].QueryID)
		}
		if len(got.Results[qi].Hits) != len(want.Results[qi].Hits) {
			t.Fatalf("query %d: %d hits over HTTP, %d direct", qi, len(got.Results[qi].Hits), len(want.Results[qi].Hits))
		}
		for j, wh := range want.Results[qi].Hits {
			gh := got.Results[qi].Hits[j]
			if gh.SeqIndex != wh.SeqIndex || gh.SeqID != wh.SeqID || gh.Score != wh.Score {
				t.Fatalf("query %d hit %d differs over HTTP: got %+v, want %+v", qi, j, gh, wh)
			}
		}
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Gateway swdual.GatewayCounters `json:"gateway"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Gateway.Completed != 1 {
		t.Fatalf("stats after one search: %+v", st.Gateway)
	}
	if c := gw.Counters(); c.Completed != 1 || c.Admitted != 1 {
		t.Fatalf("counters: %+v", c)
	}

	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("search after Close: %d, want 503", resp.StatusCode)
	}
	// The Gateway never owned the Searcher: it still answers directly.
	if _, err := s.Search(context.Background(), queries, swdual.SearchOptions{}); err != nil {
		t.Fatalf("Searcher after Gateway.Close: %v", err)
	}
	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
