// Package wire defines the binary protocol between a cluster
// coordinator and the engine servers it scatters to (the paper's §IV
// master and its workers; clients search through the HTTP gateway):
// length-prefixed frames with a one-byte message type, little-endian
// integers, and explicit versioning. A connection opens with a
// Hello/Welcome handshake and then is one multiplexed session: every
// frame carries a client-chosen request id, responses echo it, and any
// number of requests may be in flight at once. The encoding is
// hand-rolled on encoding/binary; every declared count is checked
// against the bytes left in the frame before anything is allocated.
// Engine counters travel as a (name, value) list, so adding one changes
// no frame layout.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// Protocol constants.
const (
	// Version gates the handshake: both ends must speak the same frame
	// layouts. Any change to a frame's layout bumps it, so a stale peer
	// is rejected at Hello/Welcome instead of misreading a frame
	// mid-session.
	Version = 13
	// MaxFrame bounds a frame payload (64 MiB) to fail fast on corrupt
	// length prefixes.
	MaxFrame = 64 << 20
)

// Message type codes. Codes 3 and 4 (retired in version 7), 13, 14, 17
// and 18 (the plan and database-description frames, retired in version
// 8), 15 and 16 (the checksum pair, retired in version 10) and 5 (a
// session-ending frame no peer sent; a client ends its session by
// closing the connection) stay unassigned, so TypeError keeps the code a
// stale peer decodes and can read why its handshake was refused, and a
// retired frame is an unknown type, never a misread one.
const (
	TypeHello byte = iota + 1
	TypeWelcome
	_
	_
	_
	TypeError

	TypeSearchRequest
	TypeSearchResult
	TypeCancel
	TypeReqError
	TypeStatsRequest
	TypeStatsResponse
)

// Hello opens a session. A non-zero DBChecksum asks the server to
// refuse the session unless its database matches.
type Hello struct {
	Version    uint32
	Name       string
	DBChecksum uint32
}

// Welcome accepts a session and names the server's database: its
// checksum and the alphabet queries must be encoded with (version 8),
// TopK, the most hits per query the server returns whatever a
// SearchRequest asks for (version 9; 0 when the server does not say),
// and its scoring (version 13; Matrix "" when the server does not say).
type Welcome struct {
	Version    uint32
	DBChecksum uint32
	Alphabet   string
	TopK       uint32
	Matrix     string
	GapStart   uint32
	GapExtend  uint32
}

// ResultHit is one scored database hit inside a Result.
type ResultHit struct {
	SeqIndex uint32
	Score    int32
	SeqID    string
}

// Result is one query's outcome inside a SearchResult.
type Result struct {
	QueryIndex uint32
	ElapsedNS  uint64
	Cells      uint64
	Hits       []ResultHit
}

// ErrorMsg reports a fatal condition to the peer and ends the session.
type ErrorMsg struct {
	Text string
}

// Query is one query sequence inside a SearchRequest. Residues are
// encoded in the server database's alphabet; query order within the
// request defines the result order.
type Query struct {
	ID       string
	Residues []byte
}

// SearchRequest submits one batch of queries as request ID.
type SearchRequest struct {
	ID      uint64
	TopK    uint32 // hits per query; 0 selects the server's cap
	Queries []Query
}

// SearchResult answers one SearchRequest: one Result per query, in
// request order. It is always a full answer (since version 11): a partial
// one is refused with a ReqError instead.
type SearchResult struct {
	ID      uint64
	Results []Result
}

// Cancel asks the server to abandon an in-flight request. The server
// still answers the request — with a ReqError naming the cancellation —
// so ids retire deterministically.
type Cancel struct {
	ID uint64
}

// ReqError fails one request without poisoning the connection.
type ReqError struct {
	ID   uint64
	Text string
}

// StatsRequest asks for the server's engine counters.
type StatsRequest struct {
	ID uint64
}

// WorkerRateInfo is one worker's throughput snapshot inside a
// StatsResponse: the advertised rate it registered with and the live
// estimate measured from its completed tasks.
type WorkerRateInfo struct {
	Name            string
	Kind            uint8 // 0 = CPU pool, 1 = GPU pool
	AdvertisedGCUPS float64
	ObservedGCUPS   float64
	Tasks           uint64
}

// Counter is one named engine counter inside a StatsResponse.
type Counter struct {
	Name  string
	Value uint64
}

// StatsResponse mirrors engine.Stats over the wire: the database
// description, the preparation and worker counts, every engine counter
// as a (name, value) pair (version 10; the names are engine.Counters'),
// and the per-worker observed rates a coordinator aggregates into
// cluster throughput.
type StatsResponse struct {
	ID             uint64
	DBSequences    uint32
	DBResidues     uint64
	DBChecksum     uint32
	Prepared       uint32
	WorkersStarted uint32
	Counters       []Counter
	Workers        []WorkerRateInfo
}

// Conn frames messages over a net.Conn.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// NewConn wraps a network connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, 1<<16), bw: bufio.NewWriterSize(nc, 1<<16)}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// SetDeadline sets a read/write deadline on the underlying connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// Send writes one message frame.
func (c *Conn) Send(msg any) error {
	typ, payload, err := Marshal(msg)
	if err != nil {
		return err
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	hdr[4] = typ
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Recv reads one message frame and decodes it.
func (c *Conn) Recv() (any, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return nil, err
	}
	return Unmarshal(hdr[4], payload)
}

// Marshal encodes a message into its type code and payload.
func Marshal(msg any) (byte, []byte, error) {
	var e encoder
	switch m := msg.(type) {
	case *Hello:
		e.u32(m.Version)
		e.str(m.Name)
		e.u32(m.DBChecksum)
		return TypeHello, e.buf, nil
	case *Welcome:
		e.u32(m.Version)
		e.u32(m.DBChecksum)
		e.str(m.Alphabet)
		e.u32(m.TopK)
		e.str(m.Matrix)
		e.u32(m.GapStart)
		e.u32(m.GapExtend)
		return TypeWelcome, e.buf, nil
	case *ErrorMsg:
		e.str(m.Text)
		return TypeError, e.buf, nil
	case *SearchRequest:
		e.u64(m.ID)
		e.u32(m.TopK)
		e.u32(uint32(len(m.Queries)))
		for _, q := range m.Queries {
			e.str(q.ID)
			e.bytes(q.Residues)
		}
		return TypeSearchRequest, e.buf, nil
	case *SearchResult:
		e.u64(m.ID)
		e.u32(uint32(len(m.Results)))
		for i := range m.Results {
			encodeResult(&e, &m.Results[i])
		}
		return TypeSearchResult, e.buf, nil
	case *Cancel:
		e.u64(m.ID)
		return TypeCancel, e.buf, nil
	case *ReqError:
		e.u64(m.ID)
		e.str(m.Text)
		return TypeReqError, e.buf, nil
	case *StatsRequest:
		e.u64(m.ID)
		return TypeStatsRequest, e.buf, nil
	case *StatsResponse:
		e.u64(m.ID)
		e.u32(m.DBSequences)
		e.u64(m.DBResidues)
		e.u32(m.DBChecksum)
		e.u32(m.Prepared)
		e.u32(m.WorkersStarted)
		e.u32(uint32(len(m.Counters)))
		for _, c := range m.Counters {
			e.str(c.Name)
			e.u64(c.Value)
		}
		e.u32(uint32(len(m.Workers)))
		for _, w := range m.Workers {
			e.str(w.Name)
			e.u8(w.Kind)
			e.f64(w.AdvertisedGCUPS)
			e.f64(w.ObservedGCUPS)
			e.u64(w.Tasks)
		}
		return TypeStatsResponse, e.buf, nil
	}
	return 0, nil, fmt.Errorf("wire: cannot marshal %T", msg)
}

// encodeResult appends one per-query entry of a SearchResult.
func encodeResult(e *encoder, m *Result) {
	e.u32(m.QueryIndex)
	e.u64(m.ElapsedNS)
	e.u64(m.Cells)
	e.u32(uint32(len(m.Hits)))
	for _, h := range m.Hits {
		e.u32(h.SeqIndex)
		e.u32(uint32(h.Score))
		e.str(h.SeqID)
	}
}

// Minimum encoded sizes of the repeated entries, in bytes: what a
// declared count is checked against before anything is allocated.
const (
	minQuery   = 2 + 4             // id prefix, residue length
	minResult  = 4 + 8 + 8 + 4     // index, elapsed, cells, hit count
	minHit     = 4 + 4 + 2         // index, score, id prefix
	minCounter = 2 + 8             // name prefix, value
	minWorker  = 2 + 1 + 8 + 8 + 8 // name prefix, kind, two rates, tasks
)

// decodeResult consumes one Result body.
func decodeResult(d *decoder) (Result, error) {
	var m Result
	m.QueryIndex = d.u32()
	m.ElapsedNS = d.u64()
	m.Cells = d.u64()
	n := d.count("hit", minHit)
	m.Hits = make([]ResultHit, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		var h ResultHit
		h.SeqIndex = d.u32()
		h.Score = int32(d.u32())
		h.SeqID = d.str()
		m.Hits = append(m.Hits, h)
	}
	return m, d.err
}

// Unmarshal decodes a payload by type code.
func Unmarshal(typ byte, payload []byte) (any, error) {
	d := decoder{buf: payload}
	switch typ {
	case TypeHello:
		m := &Hello{}
		m.Version = d.u32()
		m.Name = d.str()
		m.DBChecksum = d.u32()
		return m, d.err
	case TypeWelcome:
		m := &Welcome{}
		m.Version = d.u32()
		m.DBChecksum = d.u32()
		m.Alphabet = d.str()
		m.TopK = d.u32()
		m.Matrix = d.str()
		m.GapStart = d.u32()
		m.GapExtend = d.u32()
		return m, d.err
	case TypeError:
		m := &ErrorMsg{}
		m.Text = d.str()
		return m, d.err
	case TypeSearchRequest:
		m := &SearchRequest{}
		m.ID = d.u64()
		m.TopK = d.u32()
		n := d.count("query", minQuery)
		m.Queries = make([]Query, 0, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			var q Query
			q.ID = d.str()
			q.Residues = d.bytes()
			m.Queries = append(m.Queries, q)
		}
		return m, d.err
	case TypeSearchResult:
		m := &SearchResult{}
		m.ID = d.u64()
		n := d.count("result", minResult)
		m.Results = make([]Result, 0, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			r, err := decodeResult(&d)
			if err != nil {
				return nil, err
			}
			m.Results = append(m.Results, r)
		}
		return m, d.err
	case TypeCancel:
		m := &Cancel{}
		m.ID = d.u64()
		return m, d.err
	case TypeReqError:
		m := &ReqError{}
		m.ID = d.u64()
		m.Text = d.str()
		return m, d.err
	case TypeStatsRequest:
		m := &StatsRequest{}
		m.ID = d.u64()
		return m, d.err
	case TypeStatsResponse:
		m := &StatsResponse{}
		m.ID = d.u64()
		m.DBSequences = d.u32()
		m.DBResidues = d.u64()
		m.DBChecksum = d.u32()
		m.Prepared = d.u32()
		m.WorkersStarted = d.u32()
		cn := d.count("counter", minCounter)
		m.Counters = make([]Counter, 0, cn)
		for i := uint32(0); i < cn && d.err == nil; i++ {
			var c Counter
			c.Name = d.str()
			c.Value = d.u64()
			m.Counters = append(m.Counters, c)
		}
		n := d.count("worker", minWorker)
		m.Workers = make([]WorkerRateInfo, 0, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			var w WorkerRateInfo
			w.Name = d.str()
			w.Kind = d.u8()
			w.AdvertisedGCUPS = d.f64()
			w.ObservedGCUPS = d.f64()
			w.Tasks = d.u64()
			m.Workers = append(m.Workers, w)
		}
		return m, d.err
	}
	return nil, fmt.Errorf("wire: unknown message type %d", typ)
}

// encoder appends little-endian fields.
type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// decoder consumes little-endian fields, latching the first error.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated payload")
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	if d.err != nil || len(d.buf) < 2 {
		d.fail()
		return ""
	}
	n := int(binary.LittleEndian.Uint16(d.buf))
	d.buf = d.buf[2:]
	if len(d.buf) < n {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// count reads an entry count and checks, before the caller allocates,
// that the rest of the payload can hold that many entries of at least
// minSize bytes. The check is in int64, so a count >= 2^31 cannot wrap
// negative through int on 32-bit platforms and slip past it. A failed
// check latches the error and yields 0.
func (d *decoder) count(what string, minSize int64) uint32 {
	n := d.u32()
	if d.err == nil && int64(len(d.buf))/minSize < int64(n) {
		d.err = fmt.Errorf("wire: %s count %d exceeds payload", what, n)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint64(len(d.buf)) < uint64(n) {
		d.fail()
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[:n])
	d.buf = d.buf[n:]
	return b
}
