// Command loadgen is the plumbing the shell-driven gateway end-to-end
// tests speak HTTP/JSON with:
//
//	loadgen -emit-request q.fasta        # print the /v1/search JSON body
//	loadgen -format-response < resp.json # render a response as CLI text
//
// -format-response prints the same "query <id>:" / "<seq> score <n>"
// lines the swdual CLI prints (minus worker attribution), so a gateway
// answer can be diffed against a local search. (Load itself is generated
// by benchmark/, whose serve_http and cluster_scatter workloads drive the
// gateway closed-loop and gate the result.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"swdual"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		topK        = flag.Int("topk", 5, "hits requested per query")
		emitRequest = flag.String("emit-request", "", "print the /v1/search JSON body for this query FASTA and exit")
		formatResp  = flag.Bool("format-response", false, "read a /v1/search JSON response on stdin, print CLI-style text, and exit")
	)
	flag.Parse()

	switch {
	case *formatResp:
		if err := formatResponse(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
	case *emitRequest != "":
		body, err := requestBody(*emitRequest, *topK)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(body)
	default:
		log.Fatal("one of -emit-request or -format-response is required")
	}
}

// requestBody renders the /v1/search JSON body for a query FASTA file.
func requestBody(path string, topK int) ([]byte, error) {
	queries, err := swdual.LoadFASTA(path)
	if err != nil {
		return nil, err
	}
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
