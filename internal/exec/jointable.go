package exec

import (
	"sync"

	"repro/internal/types"
	"repro/internal/vector"
)

// joinTable is the columnar build side of a hash join: the build rows kept
// as dense column vectors (never boxed into datums), their evaluated key
// columns, one combined key hash per row, and a flat chained hash index
// over all of it. Row r's chain successor is next[r]; heads holds each
// bucket's first row; both store row+1 so that 0 ends a chain and a fresh
// slice is an empty index. Chains run in build-arrival order, which is what
// makes the serial join's output order a function of its inputs alone.
//
// Once indexed the table is read-only apart from matched, so the worker
// clones of a parallel probe share one table.
type joinTable struct {
	cols    []*vector.Vector // build-side columns
	keys    []*vector.Vector // key columns; a bare-column key aliases its entry in cols
	ownKeys []int            // the keys that are computed, i.e. stored on their own
	hashes  []uint64
	n       int

	heads, next []int32
	shift       uint   // bucket = hash >> shift
	matched     []bool // build rows some probe row joined with
}

func newJoinTable(ts []types.T, keys []*CompiledExpr) *joinTable {
	t := &joinTable{cols: make([]*vector.Vector, len(ts)), keys: make([]*vector.Vector, len(keys))}
	for c, typ := range ts {
		t.cols[c] = vector.New(typ, 0)
	}
	for k, e := range keys {
		if c, ok := e.ColRef(); ok {
			t.keys[k] = t.cols[c]
		} else {
			t.keys[k] = vector.New(e.T, 0)
			t.ownKeys = append(t.ownKeys, k)
		}
	}
	return t
}

// appendRows retains n live rows (sel as in vector.Batch) of the given
// columns and their evaluated key vectors, returning the bytes now held
// for them. The caller appends the matching hashes.
func (t *joinTable) appendRows(cols, keys []*vector.Vector, sel []int, n int) int64 {
	var sz int64
	for c, col := range t.cols {
		sz += col.AppendRows(cols[c], sel, n)
	}
	for _, k := range t.ownKeys {
		sz += t.keys[k].AppendRows(keys[k], sel, n)
	}
	t.n += n
	return sz
}

// appendTable moves another staging table's rows onto the end of t.
func (t *joinTable) appendTable(o *joinTable) {
	t.appendRows(o.cols, o.keys, nil, o.n)
	t.hashes = append(t.hashes, o.hashes...)
}

// buildIndex chains every row into its bucket. With workers > 1 the bucket
// space splits into that many contiguous ranges and each worker inserts
// only the rows of its range: every heads and next slot has one writer, so
// the partitioned build needs no lock. Rows insert last to first, leaving
// each chain in arrival order. matched asks for the bitmap of joined rows.
func (t *joinTable) buildIndex(workers int, matched bool) {
	if matched {
		t.matched = make([]bool, t.n)
	}
	bits := 0
	for 1<<bits < t.n {
		bits++
	}
	t.shift = uint(64 - bits)
	t.heads = make([]int32, 1<<bits)
	t.next = make([]int32, t.n)
	if t.n < 4*vector.BatchSize {
		workers = 1 // not worth a goroutine
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := t.n - 1; r >= 0; r-- {
				b := t.hashes[r] >> t.shift
				if workers > 1 && int(b*uint64(workers)>>bits) != w {
					continue
				}
				t.next[r] = t.heads[b]
				t.heads[b] = int32(r + 1)
			}
		}(w)
	}
	wg.Wait()
}

// feedFilter folds the table's first key column into the join's semijoin
// reducer, if it has one.
func (t *joinTable) feedFilter(f *RuntimeFilter) {
	if f == nil || len(t.keys) == 0 {
		return
	}
	key := t.keys[0]
	for r := 0; r < t.n; r++ {
		if !key.IsNull(r) {
			updateFilter(f, key.Get(r))
		}
	}
}

// hashKeys appends the combined key hash of every live row in the batch to
// dst, column-at-a-time over the key vectors. No key columns (a nested-loop
// join) gives every row the seed, i.e. one chain holding the whole build.
func hashKeys(cols []*vector.Vector, b *vector.Batch, dst []uint64) []uint64 {
	at := len(dst)
	dst = append(dst, make([]uint64, b.N)...)
	hs := dst[at:]
	for i := range hs {
		hs[i] = vector.HashSeed
	}
	for _, c := range cols {
		c.HashInto(b.Sel, b.N, hs)
	}
	return dst
}

// evalKeys evaluates the key expressions over a batch into dst[:0].
func evalKeys(exprs []*CompiledExpr, b *vector.Batch, dst []*vector.Vector) ([]*vector.Vector, error) {
	dst = dst[:0]
	for _, e := range exprs {
		v, err := e.Eval(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
