package gateway

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/seq"
)

// The HTTP/JSON surface of the gateway. Residues cross this boundary as
// ASCII in the backend database's alphabet; everything is validated
// here, before any admission slot is spent on malformed input, and
// every validation failure is a 4xx — the fuzz suite holds the decoder
// to that.

// SearchRequest is the POST /v1/search body.
type SearchRequest struct {
	// Queries are the sequences to compare against the database.
	Queries []Query `json:"queries"`
	// TopK bounds reported hits per query; 0 uses the server's TopK.
	// Values above the server's TopK are capped, never exceeded.
	TopK int `json:"top_k,omitempty"`
	// TimeoutMillis bounds the whole search; past it the request fails
	// with 504 and the backend stops planning work for it. It wins over
	// the Request-Timeout header when both are set.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// Query is one query sequence of a SearchRequest.
type Query struct {
	// ID labels the query in the response (defaults to q<index>).
	ID string `json:"id,omitempty"`
	// Residues are the ASCII residues in the database's alphabet.
	Residues string `json:"residues"`
}

// SearchResponse is the 200 body of POST /v1/search — and, with
// Coverage set, the 206 body of a degraded (partial-coverage) answer.
type SearchResponse struct {
	Results []QueryResult `json:"results"`
	Cells   int64         `json:"cells"`
	WallNS  int64         `json:"wall_ns"`
	// Coverage is present only on 206 answers: the backend searched some
	// database ranges but skipped others whose every replica was down.
	// Hits from searched ranges are exactly what a full search would
	// have reported for them.
	Coverage *Coverage `json:"coverage,omitempty"`
}

// Coverage is the 206 answer's partial-coverage block.
type Coverage struct {
	RangesSearched   int            `json:"ranges_searched"`
	RangesTotal      int            `json:"ranges_total"`
	ResiduesSearched int64          `json:"residues_searched"`
	ResiduesTotal    int64          `json:"residues_total"`
	Fraction         float64        `json:"fraction"` // searched share by residue volume, in [0,1]
	Skipped          []SkippedRange `json:"skipped,omitempty"`
}

// SkippedRange names one database range the degraded answer did not
// search.
type SkippedRange struct {
	Index  int    `json:"index"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Reason string `json:"reason,omitempty"`
}

// QueryResult carries one query's merged hits, in the same
// deterministic order every other entry point produces.
type QueryResult struct {
	ID     string `json:"id"`
	Worker string `json:"worker,omitempty"`
	Hits   []Hit  `json:"hits"`
}

// Hit is one database match.
type Hit struct {
	SeqIndex int    `json:"seq_index"`
	SeqID    string `json:"seq_id"`
	Score    int    `json:"score"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 answers:
	// the estimated queue drain time, from the EWMA search latency.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// apiError is an error with an HTTP status. retryAfter > 0 adds the
// Retry-After header (shed answers).
type apiError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

// Request limits: what one POST /v1/search body may cost before the
// backend sees it.
const (
	maxBodyBytes     = 8 << 20 // bytes of JSON
	maxQueries       = 1024    // queries per request, the engine's wave cap
	maxQueryResidues = 1 << 20 // summed residues per request
	// A deadline must fit a time.Duration: longer ones would wrap.
	maxTimeoutMillis = math.MaxInt64 / int64(time.Millisecond)
	maxTimeoutSecs   = math.MaxInt64 / int64(time.Second)
)

// decodeSearchRequest validates a POST /v1/search body into the
// backend's query set. Every failure is a 4xx apiError; the function
// never panics and never allocates beyond the (bounded) body it was
// handed — hostile bodies are the fuzz suite's subject.
func decodeSearchRequest(body []byte, alpha *alphabet.Alphabet) (*seq.Set, *SearchRequest, *apiError) {
	if len(body) > maxBodyBytes {
		return nil, nil, &apiError{code: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body %d bytes exceeds the %d-byte limit", len(body), maxBodyBytes)}
	}
	var req SearchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, &apiError{code: http.StatusBadRequest, msg: "invalid JSON: " + err.Error()}
	}
	if len(req.Queries) == 0 {
		return nil, nil, &apiError{code: http.StatusBadRequest, msg: "no queries"}
	}
	if len(req.Queries) > maxQueries {
		return nil, nil, &apiError{code: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("%d queries exceed the %d-query limit", len(req.Queries), maxQueries)}
	}
	if req.TopK < 0 {
		return nil, nil, &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf("negative top_k %d", req.TopK)}
	}
	if req.TimeoutMillis < 0 || req.TimeoutMillis > maxTimeoutMillis {
		return nil, nil, &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf("timeout_ms %d outside [0, %d]", req.TimeoutMillis, maxTimeoutMillis)}
	}
	total := 0
	for i := range req.Queries {
		n := len(req.Queries[i].Residues)
		if n == 0 {
			return nil, nil, &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf("query %d: empty residues", i)}
		}
		total += n
		if total > maxQueryResidues {
			return nil, nil, &apiError{code: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("summed query residues exceed the %d-residue limit", maxQueryResidues)}
		}
	}
	set := seq.NewSet(alpha)
	for i := range req.Queries {
		id := req.Queries[i].ID
		if id == "" {
			id = "q" + strconv.Itoa(i)
		}
		if err := set.Add(id, "", []byte(req.Queries[i].Residues)); err != nil {
			return nil, nil, &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf("query %d: %v", i, err)}
		}
	}
	return set, &req, nil
}

// parseTimeoutHeader reads the Request-Timeout header: a Go duration
// string ("500ms", "2s") or a bare integer meaning seconds. Empty means
// no header timeout.
func parseTimeoutHeader(v string) (time.Duration, *apiError) {
	if v == "" {
		return 0, nil
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 || int64(secs) > maxTimeoutSecs {
			return 0, &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf("Request-Timeout %d outside [0, %d] seconds", secs, maxTimeoutSecs)}
		}
		return time.Duration(secs) * time.Second, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf("invalid Request-Timeout %q", v)}
	}
	return d, nil
}

// encodeResponse maps a backend report onto the wire shape. Hits are
// copied field by field: the JSON layer owns its representation, the
// engine owns master.Hit.
func encodeResponse(queries *seq.Set, rep *master.Report) *SearchResponse {
	resp := &SearchResponse{Results: make([]QueryResult, len(rep.Results)), Cells: rep.Cells, WallNS: int64(rep.Wall)}
	for i, r := range rep.Results {
		qr := QueryResult{ID: queries.Seqs[i].ID, Worker: r.Worker, Hits: make([]Hit, len(r.Hits))}
		for j, h := range r.Hits {
			qr.Hits[j] = Hit{SeqIndex: h.SeqIndex, SeqID: h.SeqID, Score: h.Score}
		}
		resp.Results[i] = qr
	}
	if cov := rep.Coverage; cov != nil {
		resp.Coverage = &Coverage{
			RangesSearched:   cov.RangesSearched,
			RangesTotal:      cov.RangesTotal,
			ResiduesSearched: cov.ResiduesSearched,
			ResiduesTotal:    cov.ResiduesTotal,
			Fraction:         cov.Fraction(),
		}
		for _, sk := range cov.Skipped {
			resp.Coverage.Skipped = append(resp.Coverage.Skipped, SkippedRange{
				Index: sk.Index, Lo: sk.Lo, Hi: sk.Hi, Reason: sk.Reason,
			})
		}
	}
	return resp
}

// writeJSON writes v with the given status. Encoding errors are beyond
// repair at this point (headers are gone); they are ignored, matching
// net/http idiom.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

// writeError renders an apiError, including the Retry-After header on
// shed answers so well-behaved clients back off by the gateway's own
// drain estimate.
func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.code, ErrorResponse{Error: e.msg, RetryAfterSeconds: e.retryAfter})
}
