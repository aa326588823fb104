// Package swdual is a Smith-Waterman sequence-database search library,
// reproducing "Fast Biological Sequence Comparison on Hybrid Platforms"
// (Kedad-Sidhoum, Mendonca, Monna, Mounié, Trystram — ICPP 2014).
//
// A search compares a set of query sequences against a sequence database
// on a pool of CPU workers (SWIPE-style SIMD engines), one task per
// query, assigned by the paper's dual-approximation scheduler within
// twice the optimal makespan. Plan schedules the paper's CPU + GPU
// platform, its GPUs a cycle model of a Tesla C2050, without searching.
//
// Quick start:
//
//	db, _ := swdual.GenerateDatabase("UniProt", 2000) // 1/2000 scale
//	queries, _ := swdual.GenerateQueries("standard", 50)
//	report, _ := swdual.Search(db, queries, swdual.Options{}) // one CPU worker per GOMAXPROCS
//	for _, r := range report.Results {
//		fmt.Println(r.QueryID, r.Hits[0].SeqID, r.Hits[0].Score)
//	}
package swdual

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"strings"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/fasta"
	"swdual/internal/master"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/seqdb"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// Options configures a search.
type Options struct {
	// Matrix names the substitution matrix: BLOSUM62 (default), BLOSUM50,
	// PAM250 or DNA. A matrix that does not cover the sequences'
	// alphabet (DNA on protein) is refused.
	Matrix string
	// GapStart (Gs) and GapExtend (Ge) are the affine gap penalties of
	// the paper's Eqs. (3)-(4); a gap of length L costs Gs + L*Ge.
	// 0 selects the defaults, 10 and 2; a negative penalty is refused.
	GapStart  int
	GapExtend int
	// Pool describes the worker pool as a spec string of comma-separated
	// backend=count pairs, e.g. "cpu=4": the paper's m CPUs and k GPUs.
	// A search runs "cpu" workers (inter-sequence AVX2 or SWAR), whose
	// advertised rates only seed live estimates measured from their
	// tasks; it refuses "gpu", a modelled Tesla C2050 only Plan takes.
	// The empty spec selects one CPU worker per GOMAXPROCS. ServeShard
	// gives its slice a pool of this shape.
	Pool string
	// TopK bounds reported hits per query (0 selects 10, < 0 is refused).
	TopK int
	// Policy selects the allocation policy: "dual-approx" (default, the
	// paper's SWDUAL scheduler), "self-scheduling" or "round-robin" (tasks
	// dealt over the idle workers in turn, GPUs first). A wave's Report carries
	// the schedule the policy planned; self-scheduling plans none, its
	// idle workers pull the next task. Plan models the same policy.
	Policy string
	// ShardSplit is "" or "balanced", which name the one split: ranges
	// of balanced residues. Any other value is refused.
	ShardSplit string
	// ReplicaShards makes this process the coordinator of a cluster:
	// the database is split into len(ReplicaShards) ranges of balanced
	// residues, and ReplicaShards[i] lists the addresses of the serve
	// processes holding slice i, every one running ServeShard (or
	// `swdual -serve`) for that slice of the same database —
	// verified by checksum at dial, so a server holding different
	// sequences is rejected before any query runs. One address per range
	// is a plain (non-replicated) cluster; several make the range
	// survive a server dying mid-flight. Searches scatter over the
	// network, one replica per range, and gather through a deterministic
	// TopK merge, so hits stay byte-identical to an unsharded search.
	// Every server's TopK must be at least this process's, and every
	// server must score with this process's Matrix and gap penalties: a
	// server that caps hits below the gather's cap, or names another
	// scoring, is refused at dial and at every redial; at construction a
	// refusal fails NewSearcher, naming the range and the address. A
	// replica whose connection dies is failed over to a sibling (when
	// the range has one) and re-dialed in the background with capped
	// backoff — replicas proven identical is what makes failover
	// answer-preserving. A replica that cannot be reached at
	// construction starts down the same way, so a coordinator may start
	// before its servers, with ranges dark until they come up.
	// A range whose every replica is down is skipped: the search
	// answers the surviving ranges' hits, byte-identical to theirs in a
	// full answer, and Report.Coverage names the dark range (nil on a
	// full answer). With one address per range a single dead server
	// darkens its range until the background redial brings it back.
	// The search fails with replica.ErrRangeUnavailable only when every
	// range is dark. The coordinator itself is not served over the
	// wire: clients reach it through NewGateway.
	ReplicaShards [][]string
	// DialTimeout bounds dialing one remote shard or replica — TCP
	// connect and protocol handshake together — so a hung server cannot
	// block construction forever. 0 selects the default (10s).
	DialTimeout time.Duration
	// Cache enables the result cache: a repeated search (same query
	// residues, same TopK, same database) is answered from a bounded LRU
	// without running a scheduling wave. With
	// ReplicaShards the cache lives in the coordinator, so a cached
	// answer never reaches a shard server. Off by default — the
	// paper's benchmarks measure scheduling, so reproduction runs pay
	// every wave. Hits are byte-identical with the cache on or off.
	Cache bool
	// CacheSize caps cached search fingerprints (0 selects the default,
	// 1024); the cache's estimated memory is capped at 64 MiB. A
	// negative value is rejected by NewSearcher and ServeShard on every
	// topology.
	CacheSize int
}

// engineConfig validates the options an engine is built from and
// assembles its configuration — the one place NewSearcher (every
// topology), Search and ServeShard read them, so all refuse the same
// inputs with the same errors.
func (o Options) engineConfig() (engine.Config, error) {
	params, err := o.params()
	if err != nil {
		return engine.Config{}, err
	}
	policy, err := o.policy()
	if err != nil {
		return engine.Config{}, err
	}
	pool, err := o.pool()
	if err != nil {
		return engine.Config{}, err
	}
	if pool.GPU > 0 {
		return engine.Config{}, fmt.Errorf("swdual: pool %q: a search runs only cpu workers, whose time is measured; gpu workers are modelled, and only Plan (swdual -plan) schedules them", o.Pool)
	}
	if o.TopK < 0 {
		return engine.Config{}, fmt.Errorf("swdual: negative TopK %d (0 selects the default, %d)", o.TopK, engine.DefaultTopK)
	}
	if o.CacheSize < 0 {
		return engine.Config{}, fmt.Errorf("swdual: negative CacheSize %d (0 selects the default)", o.CacheSize)
	}
	if o.ShardSplit != "" && o.ShardSplit != "balanced" {
		return engine.Config{}, fmt.Errorf("swdual: unknown ShardSplit %q: ranges always balance residues (want \"\" or \"balanced\")", o.ShardSplit)
	}
	return engine.Config{
		Params:    params,
		Pool:      pool,
		TopK:      o.TopK,
		Policy:    policy,
		Cache:     o.Cache,
		CacheSize: o.CacheSize,
	}, nil
}

func (o Options) params() (sw.Params, error) {
	name := o.Matrix
	if name == "" {
		name = "BLOSUM62"
	}
	m, err := scoring.ByName(name)
	if err != nil {
		return sw.Params{}, err
	}
	g := scoring.Gaps{Start: 10, Extend: 2}
	if o.GapStart != 0 {
		g.Start = o.GapStart
	}
	if o.GapExtend != 0 {
		g.Extend = o.GapExtend
	}
	if err := g.Validate(); err != nil {
		return sw.Params{}, err
	}
	return sw.Params{Matrix: m, Gaps: g}, nil
}

func (o Options) policy() (master.Policy, error) {
	p, err := master.ParsePolicy(o.Policy)
	if err != nil {
		return 0, fmt.Errorf("swdual: %w", err)
	}
	return p, nil
}

// pool is the one reading of Options.Pool: the engine built by
// NewSearcher and ServeShard runs it, and Plan models it.
func (o Options) pool() (master.PoolSpec, error) {
	if o.Pool == "" {
		return master.DefaultPool(), nil
	}
	s, err := master.ParsePoolSpec(o.Pool)
	if err != nil {
		return master.PoolSpec{}, fmt.Errorf("swdual: %w", err)
	}
	return s, nil
}

// Database is a set of sequences usable as search subjects or queries.
type Database struct {
	set *seq.Set
	// mapped is non-nil when the set is backed by a memory-mapped
	// .swdb file (OpenDatabase): Residues alias the mapping, the data
	// stays off the Go heap, and Close releases it.
	mapped *seqdb.Mapped
}

// Len returns the number of sequences.
func (d *Database) Len() int { return d.set.Len() }

// TotalResidues returns the summed sequence length.
func (d *Database) TotalResidues() int64 { return d.set.TotalResidues() }

// Sequence returns the ID and ASCII residues of sequence i.
func (d *Database) Sequence(i int) (id string, residues string) {
	s := &d.set.Seqs[i]
	return s.ID, d.set.Alpha.DecodeString(s.Residues)
}

// Set exposes the underlying sequence set for advanced use.
func (d *Database) Set() *seq.Set { return d.set }

// LoadFASTA reads a protein FASTA file (unknown residues map to X).
func LoadFASTA(path string) (*Database, error) {
	set, err := fasta.ReadFile(path, alphabet.Protein, true)
	if err != nil {
		return nil, err
	}
	return &Database{set: set}, nil
}

// OpenDatabase opens a database file by format: a .swdb file is
// memory-mapped read-only — zero residue copies, sequence data off the
// Go heap, opening costs O(index) because the header's stored CRC is
// trusted instead of rescanning residues, and every process mapping
// the same file on one host shares a single physical copy through the
// page cache — while any other path is parsed as FASTA into the heap.
// A mapped Database must be Closed after the last Searcher over it; on
// platforms without mmap the same API transparently reads the file
// into the heap.
func OpenDatabase(path string) (*Database, error) {
	if !strings.HasSuffix(path, ".swdb") {
		return LoadFASTA(path)
	}
	m, err := seqdb.Open(path)
	if err != nil {
		return nil, err
	}
	set, err := m.Set()
	if err != nil {
		m.Close()
		return nil, err
	}
	return &Database{set: set, mapped: m}, nil
}

// Close releases the file mapping behind a Database opened from a
// .swdb path. It is a no-op for heap-backed databases, idempotent, and
// must come after the last Searcher over the Database is Closed — the
// sequences alias the mapping.
func (d *Database) Close() error {
	if d.mapped == nil {
		return nil
	}
	return d.mapped.Close()
}

// MappedBytes reports the size of the file mapping backing the
// Database (0 for heap-backed databases and after Close) — the
// operator-visible measure of how much corpus lives outside the Go
// heap.
func (d *Database) MappedBytes() int64 {
	if d.mapped == nil {
		return 0
	}
	return d.mapped.MappedBytes()
}

// VerifyMapped rescans a mapped database's residues against the
// header checksum that Open trusted — the eager integrity check for
// operators who want corruption caught at startup rather than never.
func (d *Database) VerifyMapped() error {
	if d.mapped == nil {
		return nil
	}
	return d.mapped.Verify()
}

// SaveBinary writes the database in the paper's binary format.
func (d *Database) SaveBinary(path string) error {
	return saveFile(path, func(f *os.File) error { return seqdb.Write(f, d.set) })
}

// SaveFASTA writes the database as FASTA text.
func (d *Database) SaveFASTA(path string) error {
	return saveFile(path, func(f *os.File) error { return fasta.WriteSet(f, d.set) })
}

// saveFile writes path through a sibling temporary file that is renamed
// over it once whole. Truncating path in place instead would pull the
// residues out from under a Database mapped from that very file (a
// SIGBUS mid-write); the rename leaves the old inode, and so the
// mapping, intact. A failed save, or a crash mid-save, leaves the
// previous file as it was.
// The temporary is created with mode 0666, so umask applies as it does
// for os.Create.
func saveFile(path string, write func(*os.File) error) error {
	var (
		f   *os.File
		err error
	)
	for range 10 {
		f, err = os.OpenFile(fmt.Sprintf("%s.%d.tmp", path, rand.Uint32()), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			break
		}
	}
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync() // on disk before the rename makes it the target
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// FromSequences builds a database from ASCII protein sequences.
func FromSequences(ids []string, residues []string) (*Database, error) {
	if len(ids) != len(residues) {
		return nil, fmt.Errorf("swdual: %d ids for %d sequences", len(ids), len(residues))
	}
	set := seq.NewSet(alphabet.Protein)
	for i := range ids {
		if err := set.Add(ids[i], "", []byte(strings.ToUpper(residues[i]))); err != nil {
			return nil, err
		}
	}
	return &Database{set: set}, nil
}

// GenerateDatabase creates a synthetic database preset ("UniProt",
// "Ensembl Dog Proteins", "Ensembl Rat Proteins", "RefSeq Human
// Proteins", "RefSeq Mouse Proteins"), scaled down by scale (>= 1).
func GenerateDatabase(preset string, scale int) (*Database, error) {
	spec, err := synth.DatabaseByName(preset)
	if err != nil {
		return nil, err
	}
	return &Database{set: spec.Scaled(scale).Generate()}, nil
}

// GenerateQueries creates one of the paper's query sets ("standard",
// "homogeneous", "heterogeneous"), with lengths divided by scale (>= 1).
func GenerateQueries(kind string, scale int) (*Database, error) {
	spec, err := synth.QueriesByName(kind)
	if err != nil {
		return nil, err
	}
	return &Database{set: spec.Scaled(scale).Generate()}, nil
}

// Hit is one database match.
type Hit = master.Hit

// QueryResult is the outcome of one query's search.
type QueryResult = master.QueryResult

// Report is the outcome of a search run.
type Report = master.Report

// errNilSets is the shared complaint for nil database/query arguments.
var errNilSets = fmt.Errorf("swdual: nil database or query set")

// Search compares every query against the database on an in-process
// hybrid platform and returns merged, score-sorted hits per query. It is
// a thin wrapper that runs one request through a temporary Searcher;
// callers with more than one search should keep a Searcher and let it
// amortize database preparation and the worker pool across requests.
func Search(db, queries *Database, opt Options) (*Report, error) {
	if db == nil || queries == nil {
		return nil, errNilSets
	}
	s, err := NewSearcher(db, opt)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Search(context.Background(), queries, SearchOptions{})
}

// Alignment is a full pairwise local alignment with traceback.
type Alignment struct {
	Score    int
	Identity float64
	CIGAR    string
	Text     string // BLAST-like three-line rendering
}

// AlignPair computes the optimal local alignment of two ASCII protein
// sequences with full traceback.
func AlignPair(a, b string, opt Options) (*Alignment, error) {
	params, ea, eb, err := pairInputs(a, b, opt)
	if err != nil {
		return nil, err
	}
	al := sw.Align(params, ea, eb)
	return &Alignment{
		Score:    al.Score,
		Identity: al.Identity(),
		CIGAR:    al.CIGAR(),
		Text:     al.Format(alphabet.Protein),
	}, nil
}

// ScorePair returns just the optimal local alignment score of two ASCII
// protein sequences.
func ScorePair(a, b string, opt Options) (int, error) {
	params, ea, eb, err := pairInputs(a, b, opt)
	if err != nil {
		return 0, err
	}
	return sw.Score(params, ea, eb), nil
}

// pairInputs validates opt for a pairwise comparison and encodes both
// protein sequences. The matrix must cover the protein alphabet: a
// residue code past its rows would index out of range.
func pairInputs(a, b string, opt Options) (sw.Params, []byte, []byte, error) {
	params, err := opt.params()
	if err != nil {
		return sw.Params{}, nil, nil, err
	}
	if err := params.Matrix.Covers(alphabet.Protein); err != nil {
		return sw.Params{}, nil, nil, err
	}
	ea, err := alphabet.Protein.Encode([]byte(strings.ToUpper(a)))
	if err != nil {
		return sw.Params{}, nil, nil, err
	}
	eb, err := alphabet.Protein.Encode([]byte(strings.ToUpper(b)))
	if err != nil {
		return sw.Params{}, nil, nil, err
	}
	return params, ea, eb, nil
}
