package gateway

import (
	"net/http"
	"strings"
	"testing"

	"swdual/internal/alphabet"
)

// FuzzSearchRequestJSON holds the decoder to its contract on hostile
// bodies: every rejection is a 4xx apiError with a message, acceptance
// yields a query set inside every configured limit, and nothing ever
// panics or allocates beyond the (bounded) body. The seed corpus is the
// unit suite's bodies — valid, malformed, and limit-probing.
func FuzzSearchRequestJSON(f *testing.F) {
	for _, seed := range []string{
		`{"queries":[{"id":"q0","residues":"MKVLAA"}],"top_k":3}`,
		`{"queries":[{"residues":"MKV"},{"residues":"ACDEFGHIKLMNPQRSTVWY"}],"timeout_ms":250}`,
		`{"queries":`,
		`{}`,
		`{"queries":[]}`,
		`{"queries":[{"residues":""}]}`,
		`{"queries":[{"residues":"NOT A PROTEIN 123!"}]}`,
		`{"queries":[{"residues":"MKV"}],"top_k":-1}`,
		`{"queries":[{"residues":"MKV"}],"timeout_ms":-5}`,
		`{"queries":[{"residues":"MKV","id":"` + strings.Repeat("x", 100) + `"}]}`,
		`{"queries":[{"residues":"` + strings.Repeat("M", 300) + `"}]}`,
		`[` + strings.Repeat(`[`, 64),
		`{"queries":[{"residues":"MKV","unknown":true}],"extra":{"a":[1,2,3]}}`,
		"\xff\xfe{\"queries\":[{\"residues\":\"MKV\"}]}",
		`"just a string"`,
		`null`,
		`{"queries":[null]}`,
		`{"queries":[{"residues":null}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		set, req, apiErr := decodeSearchRequest(body, alphabet.Protein)
		if apiErr != nil {
			if apiErr.code < 400 || apiErr.code > 499 {
				t.Fatalf("decode error escaped the 4xx range: %d %q", apiErr.code, apiErr.msg)
			}
			if apiErr.msg == "" {
				t.Fatal("4xx with an empty message")
			}
			if set != nil || req != nil {
				t.Fatal("decoder returned a result alongside an error")
			}
			return
		}
		if set == nil || req == nil {
			t.Fatal("decoder returned neither result nor error")
		}
		if set.Len() == 0 || set.Len() > maxQueries {
			t.Fatalf("accepted query set of size %d outside (0, %d]", set.Len(), maxQueries)
		}
		total := 0
		for i := range set.Seqs {
			if set.Seqs[i].ID == "" {
				t.Fatalf("query %d accepted without an ID", i)
			}
			total += len(set.Seqs[i].Residues)
		}
		if total > maxQueryResidues {
			t.Fatalf("accepted %d residues over the %d limit", total, maxQueryResidues)
		}
		if req.TopK < 0 || req.TimeoutMillis < 0 || req.TimeoutMillis > maxTimeoutMillis {
			t.Fatalf("accepted negative knobs: %+v", req)
		}
	})
}

// TestTimeoutHeaderParsing pins the Request-Timeout grammar: bare
// integers are seconds, Go durations pass through, and anything else —
// including negatives — is a 400.
func TestTimeoutHeaderParsing(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64 // milliseconds; -1 means reject
	}{
		{"", 0},
		{"2", 2000},
		{"500ms", 500},
		{"1.5s", 1500},
		{"0", 0},
		{"-1", -1},
		{"-500ms", -1},
		{"18446744074", -1}, // overflows a time.Duration
		{"9223372036", 9223372036000},
		{"soon", -1},
		{"1h30m", 90 * 60 * 1000},
	} {
		d, apiErr := parseTimeoutHeader(c.in)
		if c.want == -1 {
			if apiErr == nil {
				t.Fatalf("%q accepted as %v", c.in, d)
			}
			if apiErr.code != http.StatusBadRequest {
				t.Fatalf("%q rejected with %d, want 400", c.in, apiErr.code)
			}
			continue
		}
		if apiErr != nil {
			t.Fatalf("%q rejected: %v", c.in, apiErr)
		}
		if d.Milliseconds() != c.want {
			t.Fatalf("%q parsed as %v, want %dms", c.in, d, c.want)
		}
	}
}
