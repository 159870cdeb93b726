// Package vector implements the columnar batch representation used by the
// vectorized execution engine and the LLAP I/O elevator (paper §5.1): data is
// processed in fixed-size batches of column vectors, each a typed slice plus
// a null mask, with an optional selection vector identifying the live rows.
package vector

import (
	"math"
	"strings"

	"repro/internal/types"
)

// BatchSize is the default number of rows in a full batch.
const BatchSize = 1024

// Vector is a single column of values. Exactly one of I64, F64, Str is the
// backing store, chosen by the type kind:
//
//	I64: BOOLEAN (0/1), INT, BIGINT, DECIMAL (unscaled), DATE, TIMESTAMP, INTERVAL
//	F64: DOUBLE
//	Str: STRING
//
// Nulls[i] reports whether row i is NULL. A nil Nulls slice means
// "no nulls in this vector", which fast paths exploit.
type Vector struct {
	Type  types.T
	Nulls []bool
	I64   []int64
	F64   []float64
	Str   []string
}

// New returns a vector of the given type with capacity for n rows, length n.
func New(t types.T, n int) *Vector {
	v := &Vector{Type: t}
	switch t.Kind {
	case types.Float64:
		v.F64 = make([]float64, n)
	case types.String:
		v.Str = make([]string, n)
	default:
		v.I64 = make([]int64, n)
	}
	return v
}

// Len returns the number of physical rows in the vector.
func (v *Vector) Len() int {
	switch v.Type.Kind {
	case types.Float64:
		return len(v.F64)
	case types.String:
		return len(v.Str)
	default:
		return len(v.I64)
	}
}

// Resize sets the physical length to n, reallocating if needed.
func (v *Vector) Resize(n int) {
	switch v.Type.Kind {
	case types.Float64:
		if cap(v.F64) >= n {
			v.F64 = v.F64[:n]
		} else {
			nf := make([]float64, n)
			copy(nf, v.F64)
			v.F64 = nf
		}
	case types.String:
		if cap(v.Str) >= n {
			v.Str = v.Str[:n]
		} else {
			ns := make([]string, n)
			copy(ns, v.Str)
			v.Str = ns
		}
	default:
		if cap(v.I64) >= n {
			v.I64 = v.I64[:n]
		} else {
			ni := make([]int64, n)
			copy(ni, v.I64)
			v.I64 = ni
		}
	}
	if v.Nulls != nil {
		if cap(v.Nulls) >= n {
			old := len(v.Nulls)
			v.Nulls = v.Nulls[:n]
			for i := old; i < n; i++ {
				v.Nulls[i] = false
			}
		} else {
			nn := make([]bool, n)
			copy(nn, v.Nulls)
			v.Nulls = nn
		}
	}
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// SetNull marks row i as NULL, allocating the null mask on first use.
func (v *Vector) SetNull(i int) {
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.Len())
	}
	v.Nulls[i] = true
}

// EqDatum reports whether row i equals d under key equality — the same
// relation Datum.Compare() == 0 yields — without materializing a Datum.
// The caller must have materialized d from a vector of this column's type
// (aggregation group keys are), so kinds and decimal scales already agree
// and the raw backing values compare directly. Float equality mirrors
// cmpFloat (!(a<b) && !(a>b)), under which NaN equals everything — the
// same treatment the sort and group paths give it.
func (v *Vector) EqDatum(i int, d types.Datum) bool {
	if null := v.IsNull(i); null || d.Null {
		return null == d.Null
	}
	switch v.Type.Kind {
	case types.Float64:
		a, b := v.F64[i], d.F
		return !(a < b) && !(a > b)
	case types.String:
		return v.Str[i] == d.S
	default:
		return v.I64[i] == d.I
	}
}

// Get materializes row i as a Datum. Not for hot loops.
func (v *Vector) Get(i int) types.Datum {
	if v.IsNull(i) {
		return types.NullOf(v.Type.Kind)
	}
	switch v.Type.Kind {
	case types.Float64:
		return types.NewDouble(v.F64[i])
	case types.String:
		return types.NewString(v.Str[i])
	case types.Decimal:
		return types.NewDecimal(v.I64[i], v.Type.Scale)
	default:
		return types.Datum{K: v.Type.Kind, I: v.I64[i]}
	}
}

// Set stores a Datum into row i. The datum must already have the vector's
// type (use types.Cast upstream).
func (v *Vector) Set(i int, d types.Datum) {
	if d.Null {
		v.SetNull(i)
		return
	}
	if v.Nulls != nil {
		v.Nulls[i] = false
	}
	switch v.Type.Kind {
	case types.Float64:
		v.F64[i] = d.Float()
	case types.String:
		v.Str[i] = d.S
	case types.Decimal:
		// Normalize to the vector's scale.
		ds := d.DecimalScale()
		switch {
		case d.K != types.Decimal:
			v.I64[i] = d.I * types.Pow10(v.Type.Scale)
		case ds == v.Type.Scale:
			v.I64[i] = d.I
		case ds < v.Type.Scale:
			v.I64[i] = d.I * types.Pow10(v.Type.Scale-ds)
		default:
			v.I64[i] = d.I / types.Pow10(ds-v.Type.Scale)
		}
	default:
		v.I64[i] = d.I
	}
}

// CopyRow copies row src of from into row dst of v. Types must match.
func (v *Vector) CopyRow(dst int, from *Vector, src int) {
	if from.IsNull(src) {
		v.SetNull(dst)
		return
	}
	if v.Nulls != nil {
		v.Nulls[dst] = false
	}
	switch v.Type.Kind {
	case types.Float64:
		v.F64[dst] = from.F64[src]
	case types.String:
		v.Str[dst] = from.Str[src]
	default:
		v.I64[dst] = from.I64[src]
	}
}

// CopyRows copies n consecutive physical rows starting at src of from into
// consecutive rows starting at dst of v — the multi-row form of CopyRow for
// gather batching, one slice copy per column instead of one call per row.
// Types must match.
func (v *Vector) CopyRows(dst int, from *Vector, src, n int) {
	switch v.Type.Kind {
	case types.Float64:
		copy(v.F64[dst:dst+n], from.F64[src:src+n])
	case types.String:
		copy(v.Str[dst:dst+n], from.Str[src:src+n])
	default:
		copy(v.I64[dst:dst+n], from.I64[src:src+n])
	}
	if from.Nulls != nil {
		if v.Nulls == nil {
			v.Nulls = make([]bool, v.Len())
		}
		copy(v.Nulls[dst:dst+n], from.Nulls[src:src+n])
	} else if v.Nulls != nil {
		for i := dst; i < dst+n; i++ {
			v.Nulls[i] = false
		}
	}
}

// rawCopyable reports whether rows of a from-typed vector move into a
// to-typed vector by raw backing value, i.e. Set(Get()) would convert
// nothing. The column kernels below take this path; otherwise they fall
// back to Set(Get()) so a declared type that differs from the vector
// actually delivered (decimal scale, int into double) still normalizes.
func rawCopyable(to, from types.T) bool {
	switch to.Kind {
	case types.Float64, types.String:
		return from.Kind == to.Kind
	case types.Decimal:
		return from.Kind == types.Decimal && from.Scale == to.Scale
	default:
		return from.Kind != types.Float64 && from.Kind != types.String
	}
}

// extend lengthens the vector by n zero rows with amortized growth and
// returns the index of the first new row.
func (v *Vector) extend(n int) int {
	at := v.Len()
	switch v.Type.Kind {
	case types.Float64:
		v.F64 = append(v.F64, make([]float64, n)...)
	case types.String:
		v.Str = append(v.Str, make([]string, n)...)
	default:
		v.I64 = append(v.I64, make([]int64, n)...)
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, make([]bool, n)...)
	}
	return at
}

// Slice returns rows lo..hi-1 of v as a vector sharing v's backing arrays —
// a zero-copy view for replaying a long-lived column batch by batch. Its
// capacity ends at hi, so an append to the view reallocates instead of
// writing into v; the rows themselves must be treated as read-only.
func (v *Vector) Slice(lo, hi int) *Vector {
	s := &Vector{Type: v.Type}
	switch v.Type.Kind {
	case types.Float64:
		s.F64 = v.F64[lo:hi:hi]
	case types.String:
		s.Str = v.Str[lo:hi:hi]
	default:
		s.I64 = v.I64[lo:hi:hi]
	}
	if v.Nulls != nil {
		s.Nulls = v.Nulls[lo:hi:hi]
	}
	return s
}

// CapBytes returns the bytes v's backing arrays hold by capacity — what a
// long-lived column really pins, growth slack included. String payloads are
// not counted: they are shared with whatever the strings were copied from.
func (v *Vector) CapBytes() int64 {
	n := int64(cap(v.I64))*8 + int64(cap(v.F64))*8 + int64(cap(v.Str))*16
	return n + int64(cap(v.Nulls))
}

// AppendRows appends from's n live rows (physical rows sel[0:n], or 0..n-1
// when sel is nil) to the end of v, growing it — the kernel that retains a
// batch column in a long-lived columnar store (the hash-join build table)
// without boxing rows. It returns the payload bytes appended, for memory
// accounting.
func (v *Vector) AppendRows(from *Vector, sel []int, n int) int64 {
	at := v.extend(n)
	bytes := int64(n) * 8
	if !rawCopyable(v.Type, from.Type) {
		for i := 0; i < n; i++ {
			r := i
			if sel != nil {
				r = sel[i]
			}
			v.Set(at+i, from.Get(r))
		}
		return bytes
	}
	switch v.Type.Kind {
	case types.Float64:
		if dst := v.F64[at:]; sel == nil {
			copy(dst, from.F64[:n])
		} else {
			for i, r := range sel[:n] {
				dst[i] = from.F64[r]
			}
		}
	case types.String:
		dst := v.Str[at:]
		if sel == nil {
			copy(dst, from.Str[:n])
		} else {
			for i, r := range sel[:n] {
				dst[i] = from.Str[r]
			}
		}
		bytes += int64(n) * 8 // string headers are two words
		for _, s := range dst[:n] {
			bytes += int64(len(s))
		}
	default:
		if dst := v.I64[at:]; sel == nil {
			copy(dst, from.I64[:n])
		} else {
			for i, r := range sel[:n] {
				dst[i] = from.I64[r]
			}
		}
	}
	if from.Nulls == nil {
		return bytes // extend already cleared v's mask over the new rows
	}
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.Len())
	}
	if dst := v.Nulls[at:]; sel == nil {
		copy(dst, from.Nulls[:n])
	} else {
		for i, r := range sel[:n] {
			dst[i] = from.Nulls[r]
		}
	}
	return bytes + int64(n)
}

// Gather sets rows dst..dst+len(idx)-1 of v to from's physical rows idx; a
// negative index yields NULL (the null-extended side of an outer join, for
// which from may be empty). It overwrites values and null flags alike, so
// a reused scratch vector carries nothing over.
func (v *Vector) Gather(dst int, from *Vector, idx []int32) {
	if !rawCopyable(v.Type, from.Type) {
		for k, r := range idx {
			if r < 0 {
				v.SetNull(dst + k)
			} else {
				v.Set(dst+k, from.Get(int(r)))
			}
		}
		return
	}
	switch v.Type.Kind {
	case types.Float64:
		out := v.F64[dst : dst+len(idx)]
		for k, r := range idx {
			if r >= 0 {
				out[k] = from.F64[r]
			}
		}
	case types.String:
		out := v.Str[dst : dst+len(idx)]
		for k, r := range idx {
			if r >= 0 {
				out[k] = from.Str[r]
			}
		}
	default:
		out := v.I64[dst : dst+len(idx)]
		for k, r := range idx {
			if r >= 0 {
				out[k] = from.I64[r]
			}
		}
	}
	if v.Nulls == nil && from.Nulls == nil {
		for k, r := range idx {
			if r < 0 {
				v.SetNull(dst + k)
			}
		}
		return
	}
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.Len())
	}
	nulls := v.Nulls[dst : dst+len(idx)]
	for k, r := range idx {
		nulls[k] = r < 0 || (from.Nulls != nil && from.Nulls[r])
	}
}

// rep classifies how rows of two columns compare: by raw backing value when
// both share one representation, through datums otherwise.
type rep uint8

const (
	repMixed rep = iota // mixed numeric, temporal or string-vs-number kinds
	repI64
	repF64
	repStr
)

// repOf returns the common representation of two column types. Integer
// backed columns share one when their kinds (and decimal scales) agree or
// both are plain integers — the cases Datum.Compare decides on the raw I.
func repOf(a, b types.T) rep {
	switch ak, bk := a.Kind, b.Kind; {
	case ak == types.String || bk == types.String:
		if ak == bk {
			return repStr
		}
	case ak == types.Float64 || bk == types.Float64:
		if ak == bk {
			return repF64
		}
	case ak == bk && (ak != types.Decimal || a.Scale == b.Scale), plainInt(ak) && plainInt(bk):
		return repI64
	}
	return repMixed
}

func plainInt(k types.Kind) bool {
	return k == types.Boolean || k == types.Int32 || k == types.Int64
}

// EqRow reports whether row i of v equals row j of o under join-key
// equality: the relation Datum.Compare() == 0 yields, except that NULL
// equals nothing. Columns of one representation compare raw backing values
// (float equality mirrors cmpFloat, like EqDatum); mixed numeric or
// temporal kinds — which HashAt hashes alike when equal — fall back to the
// datum comparison.
func (v *Vector) EqRow(i int, o *Vector, j int) bool {
	if (v.Nulls != nil && v.Nulls[i]) || (o.Nulls != nil && o.Nulls[j]) {
		return false
	}
	switch repOf(v.Type, o.Type) {
	case repStr:
		return v.Str[i] == o.Str[j]
	case repF64:
		a, b := v.F64[i], o.F64[j]
		return !(a < b) && !(a > b)
	case repI64:
		return v.I64[i] == o.I64[j]
	}
	return v.Get(i).Compare(o.Get(j)) == 0
}

// compareNulls orders two rows of which at least one is NULL: NULLs sort
// together, ahead of every value under NULLS FIRST and behind it otherwise,
// whatever the key's direction.
func compareNulls(vn, on, nullsFirst bool) int {
	switch {
	case vn && on:
		return 0
	case vn == nullsFirst:
		return -1
	}
	return 1
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CompareRow is the three-way comparison of row i of v with row j of o
// under one sort key, negative when v's row orders first: Datum.Compare on
// the two values, inverted by desc, with NULLs placed by nullsFirst alone.
// Like EqRow it reads the backing stores and boxes only mixed kinds. A NaN
// compares equal to everything, as cmpFloat has it.
func (v *Vector) CompareRow(i int, o *Vector, j int, desc, nullsFirst bool) int {
	vn, on := v.Nulls != nil && v.Nulls[i], o.Nulls != nil && o.Nulls[j]
	if vn || on {
		return compareNulls(vn, on, nullsFirst)
	}
	var c int
	switch repOf(v.Type, o.Type) {
	case repStr:
		c = strings.Compare(v.Str[i], o.Str[j])
	case repF64:
		c = cmpOrdered(v.F64[i], o.F64[j])
	case repI64:
		c = cmpOrdered(v.I64[i], o.I64[j])
	default:
		c = v.Get(i).Compare(o.Get(j))
	}
	if desc {
		return -c
	}
	return c
}

// Comparator returns CompareRow between rows of v itself with the
// representation, direction and null handling resolved once — the form an
// index sort calls n log n times. The column must not grow afterwards: the
// closure holds its backing slices.
func (v *Vector) Comparator(desc, nullsFirst bool) func(i, j int32) int {
	sign := 1
	if desc {
		sign = -1
	}
	var values func(i, j int32) int
	switch v.Type.Kind {
	case types.String:
		a := v.Str
		values = func(i, j int32) int { return sign * strings.Compare(a[i], a[j]) }
	case types.Float64:
		a := v.F64
		values = func(i, j int32) int { return sign * cmpOrdered(a[i], a[j]) }
	default:
		a := v.I64
		values = func(i, j int32) int { return sign * cmpOrdered(a[i], a[j]) }
	}
	nulls := v.Nulls
	if nulls == nil {
		return values
	}
	return func(i, j int32) int {
		if x, y := nulls[i], nulls[j]; x || y {
			return compareNulls(x, y, nullsFirst)
		}
		return values(i, j)
	}
}

// Hashing constants for the column-at-a-time key hashing used by hash
// joins and hash aggregation. Combined hashes follow FNV-1a mixing:
// h = h*HashPrime ^ columnHash.
const (
	// HashSeed is the initial value for a combined multi-column key hash.
	HashSeed uint64 = 14695981039346656037
	// HashPrime is the FNV-1a multiplier used to combine column hashes.
	HashPrime uint64 = 1099511628211
	// NullHash is the hash of a NULL value in any column.
	NullHash uint64 = 0x9e3779b97f4a7c15
)

// mix64 is the splitmix64 finalizer, used to spread raw values over the
// whole 64-bit space before FNV combination.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashAt returns the hash of physical row r. Values of different numeric
// kinds that compare equal hash equal (INT 3, DOUBLE 3.0 and DECIMAL 3.00
// all hash as integer 3), mirroring types.Datum.Hash semantics without
// materializing a Datum.
func (v *Vector) HashAt(r int) uint64 {
	if v.Nulls != nil && v.Nulls[r] {
		return NullHash
	}
	switch v.Type.Kind {
	case types.String:
		h := HashSeed
		s := v.Str[r]
		for j := 0; j < len(s); j++ {
			h = (h ^ uint64(s[j])) * HashPrime
		}
		return mix64(h ^ 1)
	case types.Float64:
		return hashNumeric(v.F64[r])
	case types.Decimal:
		return hashNumeric(float64(v.I64[r]) / float64(types.Pow10(v.Type.Scale)))
	default:
		return mix64(uint64(v.I64[r]))
	}
}

func hashNumeric(f float64) uint64 {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return mix64(uint64(int64(f)))
	}
	return mix64(math.Float64bits(f))
}

// HashInto folds each live row's hash into dst, one slot per live row:
// dst[i] = dst[i]*HashPrime ^ hash(row i). Callers seed dst (HashSeed for
// the first column, or a raw zero to extract per-column hashes) and call
// HashInto once per key column, hashing column-at-a-time instead of
// materializing per-row datums.
func (v *Vector) HashInto(sel []int, n int, dst []uint64) {
	if sel != nil {
		for i := 0; i < n; i++ {
			dst[i] = dst[i]*HashPrime ^ v.HashAt(sel[i])
		}
		return
	}
	for i := 0; i < n; i++ {
		dst[i] = dst[i]*HashPrime ^ v.HashAt(i)
	}
}

// Batch is a set of equal-length column vectors plus an optional selection
// vector. When Sel is non-nil, only rows Sel[0:N] are live; otherwise rows
// 0..N-1 are live.
type Batch struct {
	Cols []*Vector
	Sel  []int
	N    int
}

// NewBatch allocates a batch with one vector per type, each sized to cap rows.
func NewBatch(ts []types.T, capacity int) *Batch {
	cols := make([]*Vector, len(ts))
	for i, t := range ts {
		cols[i] = New(t, capacity)
	}
	return &Batch{Cols: cols}
}

// Capacity returns the physical row capacity of the batch.
func (b *Batch) Capacity() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// RowIdx maps a live-row ordinal to a physical row index.
func (b *Batch) RowIdx(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// Row materializes live row i as a freshly allocated slice of datums — 64
// bytes per cell. It is for results leaving the engine and for tests:
// hivelint's no-row-boxing analyzer rejects a call inside a loop in package
// exec, where AppendRows and Gather keep rows columnar instead.
func (b *Batch) Row(i int) []types.Datum {
	r := b.RowIdx(i)
	out := make([]types.Datum, len(b.Cols))
	for c, col := range b.Cols {
		out[c] = col.Get(r)
	}
	return out
}

// Compact rewrites the batch so the live rows become physical rows 0..N-1
// and drops the selection vector. This simplifies operators that need dense
// input (e.g. shuffle writers).
func (b *Batch) Compact() {
	if b.Sel == nil {
		return
	}
	for _, col := range b.Cols {
		switch col.Type.Kind {
		case types.Float64:
			for i := 0; i < b.N; i++ {
				col.F64[i] = col.F64[b.Sel[i]]
			}
		case types.String:
			for i := 0; i < b.N; i++ {
				col.Str[i] = col.Str[b.Sel[i]]
			}
		default:
			for i := 0; i < b.N; i++ {
				col.I64[i] = col.I64[b.Sel[i]]
			}
		}
		if col.Nulls != nil {
			for i := 0; i < b.N; i++ {
				col.Nulls[i] = col.Nulls[b.Sel[i]]
			}
		}
	}
	b.Sel = nil
}

// Types returns the column types of the batch.
func (b *Batch) Types() []types.T {
	ts := make([]types.T, len(b.Cols))
	for i, c := range b.Cols {
		ts[i] = c.Type
	}
	return ts
}
