package orc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/dfs"
	"repro/internal/types"
	"repro/internal/vector"
)

// ChunkReader fetches a byte range of a column chunk. The default
// implementation reads straight from the file system; the LLAP cache
// (paper §5.1) provides a caching implementation addressed by
// (fileID, stripe, column), which is exactly the row/column-group cache
// addressing of Figure 5.
type ChunkReader interface {
	ReadChunk(path string, fileID uint64, stripe, col int, off, length int64) ([]byte, error)
}

type fsChunkReader struct{ fs *dfs.FS }

func (r fsChunkReader) ReadChunk(path string, _ uint64, _, _ int, off, length int64) ([]byte, error) {
	return r.fs.ReadAt(path, off, length)
}

// VectorCache stores fully decoded column vectors keyed by
// (fileID, stripe, column). This is the second tier of the LLAP I/O
// elevator (paper §5.1): where the ChunkReader caches raw encoded bytes,
// the VectorCache caches the *decoded* representation, so a hit skips
// both the DFS read and the decode. Cached vectors are shared across
// concurrent queries and must never be mutated by consumers.
type VectorCache interface {
	GetVector(fileID uint64, stripe, col int) (*vector.Vector, bool)
	PutVector(fileID uint64, stripe, col int, v *vector.Vector)
}

// VectorPeeker is an optional VectorCache extension: Peek checks residency
// without counting a hit/miss, used by the prefetch path so elevator
// lookups do not pollute per-query cache statistics.
type VectorPeeker interface {
	PeekVector(fileID uint64, stripe, col int) bool
}

// Prefetcher queues asynchronous stripe decode work (the I/O elevator).
// An implementation returns true when the request was accepted; it must
// then invoke done (when non-nil) exactly once after the stripe has been
// decoded or abandoned. A false return means the caller should not expect
// any background work (and done is never called).
type Prefetcher interface {
	Prefetch(r *Reader, stripe int, cols []int, done func()) bool
}

// Reader reads an ORC-like file.
type Reader struct {
	fs      *dfs.FS
	path    string
	fileID  uint64
	schema  []Column
	ft      footer
	chunks  ChunkReader
	vectors VectorCache
}

// NewReader opens a file and parses its footer. The footer read is charged
// to the file system; metadata caching layers can avoid repeated opens.
func NewReader(fs *dfs.FS, path string) (*Reader, error) {
	st, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	tail, err := fs.ReadAt(path, max64(0, st.Size-8), 8)
	if err != nil {
		return nil, err
	}
	if len(tail) < 8 || string(tail[4:]) != magic {
		return nil, fmt.Errorf("orc: %s is not an ORC file", path)
	}
	ftLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	ftStart := st.Size - 8 - ftLen
	if ftStart < 0 {
		return nil, fmt.Errorf("orc: corrupt footer length in %s", path)
	}
	fb, err := fs.ReadAt(path, ftStart, ftLen)
	if err != nil {
		return nil, err
	}
	var ft footer
	if err := json.Unmarshal(fb, &ft); err != nil {
		return nil, fmt.Errorf("orc: decode footer of %s: %v", path, err)
	}
	schema := make([]Column, len(ft.Names))
	for i, name := range ft.Names {
		t, err := types.ParseType(ft.Types[i])
		if err != nil {
			return nil, fmt.Errorf("orc: bad type in footer of %s: %v", path, err)
		}
		schema[i] = Column{Name: name, Type: t}
	}
	return &Reader{
		fs:     fs,
		path:   path,
		fileID: st.FileID,
		schema: schema,
		ft:     ft,
		chunks: fsChunkReader{fs},
	}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SetVectorCache attaches a decoded-vector cache consulted by ReadStripe
// and populated by both ReadStripe and PrefetchStripe.
func (r *Reader) SetVectorCache(vc VectorCache) { r.vectors = vc }

// WithSources returns a shallow copy of the reader bound to the given
// chunk and vector sources, sharing the parsed footer. This lets a
// process-wide metadata cache hand out one parsed footer to many
// concurrent queries, each with its own cache wiring, without racing on
// the original reader. A nil ChunkReader keeps the current chunk source.
func (r *Reader) WithSources(cr ChunkReader, vc VectorCache) *Reader {
	nr := *r
	if cr != nil {
		nr.chunks = cr
	}
	nr.vectors = vc
	return &nr
}

// Schema returns the file's columns.
func (r *Reader) Schema() []Column { return r.schema }

// Rows returns the total row count.
func (r *Reader) Rows() int64 { return r.ft.Rows }

// NumStripes returns the stripe count.
func (r *Reader) NumStripes() int { return len(r.ft.Stripes) }

// Stripe returns metadata for stripe i.
func (r *Reader) Stripe(i int) StripeInfo { return r.ft.Stripes[i] }

// StripeRows returns the row count of stripe i, used to balance
// stripe-granular scan ranges across workers.
func (r *Reader) StripeRows(i int) int { return r.ft.Stripes[i].Rows }

// FileID returns the unique file generation id (cache key component).
func (r *Reader) FileID() uint64 { return r.fileID }

// Path returns the file path.
func (r *Reader) Path() string { return r.path }

// StripeCanMatch evaluates a search argument against stripe statistics,
// returning false only when the stripe provably contains no matching rows.
// For equality predicates it also consults the column Bloom filter when one
// was written.
func (r *Reader) StripeCanMatch(stripe int, sarg *SearchArgument) bool {
	if sarg == nil {
		return true
	}
	info := r.ft.Stripes[stripe]
	for _, p := range sarg.Preds {
		if p.Col < 0 || p.Col >= len(info.Columns) {
			continue
		}
		cm := info.Columns[p.Col]
		if !predCanMatchStats(p, cm) {
			return false
		}
		if (p.Op == PredEQ || p.Op == PredIn) && cm.BloomLength > 0 {
			data, err := r.chunks.ReadChunk(r.path, r.fileID, stripe, p.Col,
				info.Offset+cm.BloomOffset, cm.BloomLength)
			if err != nil {
				continue // bloom unavailable: cannot skip
			}
			bf, err := bloomFromBytes(data)
			if err != nil {
				continue
			}
			any := false
			for _, v := range p.Values {
				if bf.mayContain(v.Hash()) {
					any = true
					break
				}
			}
			if !any {
				return false
			}
		}
		// PredBloom's runtime filter is applied row-wise during the scan;
		// only its min/max range participates in stripe skipping here.
	}
	return true
}

func predCanMatchStats(p Predicate, cm columnMeta) bool {
	if p.Op == PredIsNull {
		return cm.NullCount > 0
	}
	if cm.Min == nil || cm.Max == nil {
		// All values NULL: only IS NULL can match.
		return false
	}
	minD, maxD := *cm.Min, *cm.Max
	switch p.Op {
	case PredEQ:
		v := p.Values[0]
		return v.Compare(minD) >= 0 && v.Compare(maxD) <= 0
	case PredLT:
		return minD.Compare(p.Values[0]) < 0
	case PredLE:
		return minD.Compare(p.Values[0]) <= 0
	case PredGT:
		return maxD.Compare(p.Values[0]) > 0
	case PredGE:
		return maxD.Compare(p.Values[0]) >= 0
	case PredBetween:
		return maxD.Compare(p.Values[0]) >= 0 && minD.Compare(p.Values[1]) <= 0
	case PredIn:
		for _, v := range p.Values {
			if v.Compare(minD) >= 0 && v.Compare(maxD) <= 0 {
				return true
			}
		}
		return false
	case PredBloom:
		// Semijoin reducer: min/max range test on the build-side bounds.
		return maxD.Compare(p.Values[0]) >= 0 && minD.Compare(p.Values[1]) <= 0
	}
	return true
}

// ReadStripe decodes the projected columns of stripe i into a dense batch.
// projection lists column ordinals; a nil projection reads every column.
func (r *Reader) ReadStripe(i int, projection []int) (*vector.Batch, error) {
	info := r.ft.Stripes[i]
	if projection == nil {
		projection = make([]int, len(r.schema))
		for c := range projection {
			projection[c] = c
		}
	}
	cols := make([]*vector.Vector, len(projection))
	for oi, c := range projection {
		if c < 0 || c >= len(r.schema) {
			return nil, fmt.Errorf("orc: projection column %d out of range", c)
		}
		vec, err := r.readColumn(info, i, c)
		if err != nil {
			return nil, err
		}
		cols[oi] = vec
	}
	return &vector.Batch{Cols: cols, N: info.Rows}, nil
}

// readColumn produces the decoded vector for one column of one stripe:
// decoded-vector cache first, then chunk read (itself possibly served by
// the raw-byte cache) followed by decode, publishing the result back into
// the vector cache. The returned vector may be shared; callers must treat
// it as immutable.
func (r *Reader) readColumn(info StripeInfo, stripe, c int) (*vector.Vector, error) {
	if r.vectors != nil {
		if v, ok := r.vectors.GetVector(r.fileID, stripe, c); ok {
			return v, nil
		}
	}
	cm := info.Columns[c]
	data, err := r.chunks.ReadChunk(r.path, r.fileID, stripe, c, info.Offset+cm.Offset, cm.Length)
	if err != nil {
		return nil, err
	}
	vec, err := decodeColumn(r.schema[c].Type, cm, data, info.Rows)
	if err != nil {
		return nil, fmt.Errorf("orc: decode %s stripe %d: %v", r.schema[c].Name, stripe, err)
	}
	if r.vectors != nil {
		r.vectors.PutVector(r.fileID, stripe, c, vec)
	}
	return vec, nil
}

// PrefetchStripe warms the decoded-vector cache with the given columns of
// stripe i. It is the elevator worker's entry point: residency is probed
// with PeekVector (no hit/miss accounting) and already-resident columns
// are not re-decoded. A no-op when the reader has no vector cache.
func (r *Reader) PrefetchStripe(i int, cols []int) error {
	if r.vectors == nil || i < 0 || i >= len(r.ft.Stripes) {
		return nil
	}
	info := r.ft.Stripes[i]
	pk, canPeek := r.vectors.(VectorPeeker)
	if cols == nil {
		cols = make([]int, len(r.schema))
		for c := range cols {
			cols[c] = c
		}
	}
	for _, c := range cols {
		if c < 0 || c >= len(r.schema) {
			continue
		}
		if canPeek && pk.PeekVector(r.fileID, i, c) {
			continue
		}
		cm := info.Columns[c]
		data, err := r.chunks.ReadChunk(r.path, r.fileID, i, c, info.Offset+cm.Offset, cm.Length)
		if err != nil {
			return err
		}
		vec, err := decodeColumn(r.schema[c].Type, cm, data, info.Rows)
		if err != nil {
			return err
		}
		r.vectors.PutVector(r.fileID, i, c, vec)
	}
	return nil
}

// StripeEncodedBytes returns the encoded size of the given columns of
// stripe i (the whole stripe for nil cols), used to budget in-flight
// elevator work before any bytes are read.
func (r *Reader) StripeEncodedBytes(i int, cols []int) int64 {
	if i < 0 || i >= len(r.ft.Stripes) {
		return 0
	}
	info := r.ft.Stripes[i]
	if cols == nil {
		return info.Length
	}
	var n int64
	for _, c := range cols {
		if c >= 0 && c < len(info.Columns) {
			n += info.Columns[c].Length
		}
	}
	return n
}

func decodeColumn(t types.T, cm columnMeta, data []byte, rows int) (*vector.Vector, error) {
	vec := &vector.Vector{Type: t}
	pos := 0
	if cm.HasNulls {
		nulls, err := decodePresence(data, rows)
		if err != nil {
			return nil, err
		}
		vec.Nulls = nulls
		pos = (rows + 7) / 8
	}
	body := data[pos:]
	switch cm.Encoding {
	case EncodeDouble:
		vals, err := decodeDoubles(body, rows)
		if err != nil {
			return nil, err
		}
		vec.F64 = vals
	case EncodeDirect:
		vals, err := decodeStringsDirect(body, rows)
		if err != nil {
			return nil, err
		}
		vec.Str = vals
	case EncodeDict:
		vals, err := decodeStringsDict(body, rows)
		if err != nil {
			return nil, err
		}
		vec.Str = vals
	case EncodeRLE:
		vals, err := decodeRLE(body, rows)
		if err != nil {
			return nil, err
		}
		vec.I64 = vals
	default:
		return nil, fmt.Errorf("orc: unknown encoding %d", cm.Encoding)
	}
	return vec, nil
}

// PredOp is a search-argument comparison operator.
type PredOp uint8

// Search argument operators ("sargable predicates", paper §5.1).
const (
	PredEQ PredOp = iota
	PredLT
	PredLE
	PredGT
	PredGE
	PredBetween // Values[0] <= x <= Values[1]
	PredIn
	PredIsNull
	PredBloom // dynamic semijoin reducer: range in Values + Bloom membership
)

// BloomTester is the hook the dynamic semijoin reduction uses to push a
// runtime-built Bloom filter of join keys into the scan (paper §4.6).
type BloomTester interface {
	MayContain(hash uint64) bool
}

// Predicate constrains one column.
type Predicate struct {
	Col    int
	Op     PredOp
	Values []types.Datum
	Bloom  BloomTester // only for PredBloom
}

// SearchArgument is a conjunction of predicates used to skip stripes.
type SearchArgument struct {
	Preds []Predicate
}
