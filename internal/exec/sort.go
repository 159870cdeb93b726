// Sorting operators: memory-governed external sort (ORDER BY), bounded-heap
// TopN (ORDER BY + LIMIT [OFFSET]) and the comparators they share with the
// parallel merge exchange (merge.go). Under a parallel plan each worker
// produces a locally sorted run with these same operators, so the
// comparator must be identical across the serial sort, the per-worker runs
// and the k-way merge for parallel ORDER BY to reproduce serial output
// exactly.
//
// SortOp is columnar and beyond-memory capable: input batches copy onto the
// column vectors of a rowStore accounted against the query's memory
// governor, the sort permutes an int32 index over the key columns, and when
// a reservation is denied the resident rows go to a run file in index order.
// The drain then merges the file-backed runs and the resident remainder
// through the same loser tree the parallel merge uses. Runs spill in arrival
// order and ties break toward the lower run index, so the merged output
// reproduces the in-memory stable sort byte for byte.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// compareKey orders two datums under one sort key: negative when x comes
// first. NULLS FIRST puts NULL before non-NULL regardless of direction.
// It is the ordering's definition: the TopN heaps apply it to their boxed
// rows, and the vector kernels the sort, the window and the loser-tree merge
// run on (Vector.CompareRow, Vector.Comparator) are property-tested to agree
// with it on every pair of values.
func compareKey(k plan.SortKey, x, y types.Datum) int {
	if x.Null || y.Null {
		if x.Null && y.Null {
			return 0
		}
		first := -1
		if !k.NullsFirst {
			first = 1
		}
		if x.Null {
			return first
		}
		return -first
	}
	c := x.Compare(y)
	if k.Desc {
		return -c
	}
	return c
}

// sortCompare builds the 3-way comparator of boxed rows for a key set — the
// TopN heap's, whose kept rows are the one boxed structure here.
func sortCompare(keys []plan.SortKey) func(a, b []types.Datum) int {
	return func(a, b []types.Datum) int {
		for _, k := range keys {
			if c := compareKey(k, a[k.Col], b[k.Col]); c != 0 {
				return c
			}
		}
		return 0
	}
}

// sortCompareAt is the comparator over batch rows in place — the merge's
// hot loop reads the column vectors directly (vector.CompareRow is
// compareKey without the datums).
func sortCompareAt(keys []plan.SortKey) func(ab *vector.Batch, ai int, bb *vector.Batch, bi int) int {
	return func(ab *vector.Batch, ai int, bb *vector.Batch, bi int) int {
		ar, br := ab.RowIdx(ai), bb.RowIdx(bi)
		for _, k := range keys {
			if c := ab.Cols[k.Col].CompareRow(ar, bb.Cols[k.Col], br, k.Desc, k.NullsFirst); c != 0 {
				return c
			}
		}
		return 0
	}
}

// rowComparator is the comparator over row ordinals of one set of resident
// columns, each key column's type dispatch resolved once. The columns must
// be complete: the comparator holds their backing arrays.
func rowComparator(cols []*vector.Vector, keys []plan.SortKey) func(a, b int32) int {
	cmps := make([]func(a, b int32) int, len(keys))
	for i, k := range keys {
		cmps[i] = cols[k.Col].Comparator(k.Desc, k.NullsFirst)
	}
	if len(cmps) == 1 {
		return cmps[0]
	}
	return func(a, b int32) int {
		for _, cmp := range cmps {
			if c := cmp(a, b); c != 0 {
				return c
			}
		}
		return 0
	}
}

// identityIndex returns the row ordinals 0..n-1: arrival order.
func identityIndex(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// sortIndex stably sorts row ordinals under cmp: equal rows keep the order
// they have in idx, so sorting arrival order breaks ties by arrival. It is
// the engine's one sort — insertion-sorted short runs, then bottom-up merge
// passes between idx and tmp (len(tmp) >= len(idx)) — and polls for
// cancellation on entry and once per pass, never per row.
func sortIndex(ctx *Context, idx, tmp []int32, cmp func(a, b int32) int) error {
	const run = 8
	n := len(idx)
	if err := ctx.CheckCanceled(); err != nil {
		return err
	}
	for lo := 0; lo < n; lo += run {
		for i, hi := lo+1, min(lo+run, n); i < hi; i++ {
			x, j := idx[i], i
			for ; j > lo && cmp(x, idx[j-1]) < 0; j-- {
				idx[j] = idx[j-1]
			}
			idx[j] = x
		}
	}
	src, dst := idx, tmp[:n]
	for width := run; width < n; width *= 2 {
		if err := ctx.CheckCanceled(); err != nil {
			return err
		}
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			a, b, out := src[lo:mid], src[mid:hi], dst[lo:hi]
			if len(b) == 0 || cmp(a[len(a)-1], b[0]) <= 0 {
				copy(out, src[lo:hi]) // already in order
				continue
			}
			i, j, k := 0, 0, 0
			for i < len(a) && j < len(b) {
				if cmp(b[j], a[i]) < 0 {
					out[k] = b[j]
					j++
				} else {
					out[k] = a[i]
					i++
				}
				k++
			}
			k += copy(out[k:], a[i:])
			copy(out[k:], b[j:])
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &idx[0] {
		copy(idx, src)
	}
	return nil
}

// emitRows renders boxed rows starting at ordinal start into a batch, or nil
// when exhausted — how rows decoded from a spill file re-enter the engine.
func emitRows(rows [][]types.Datum, start int, ts []types.T) *vector.Batch {
	if start >= len(rows) {
		return nil
	}
	n := len(rows) - start
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	return rowsBatch(rows[start:start+n], ts)
}

// rowsBatch renders boxed rows as one dense batch.
func rowsBatch(rows [][]types.Datum, ts []types.T) *vector.Batch {
	out := vector.NewBatch(ts, len(rows))
	for i, row := range rows {
		for c, d := range row {
			out.Cols[c].Set(i, d)
		}
	}
	out.N = len(rows)
	return out
}

// viewOf returns rows lo..hi-1 of dense columns as a batch of zero-copy
// column slices. Consumers treat the batches they pull as read-only, which
// is what lets views of one set of columns be handed out more than once.
func viewOf(cols []*vector.Vector, lo, hi int) *vector.Batch {
	out := make([]*vector.Vector, len(cols))
	for c, col := range cols {
		out[c] = col.Slice(lo, hi)
	}
	return &vector.Batch{Cols: out, N: hi - lo}
}

// batchViews hands a dense batch of any length out BatchSize rows at a time,
// as views.
type batchViews struct {
	b  *vector.Batch
	at int
}

// next returns the next view, or nil when the batch (possibly nil) is spent.
func (v *batchViews) next() *vector.Batch {
	if v.b == nil || v.at >= v.b.N {
		return nil
	}
	lo := v.at
	v.at = min(lo+vector.BatchSize, v.b.N)
	return viewOf(v.b.Cols, lo, v.at)
}

// dropOffset discards the first off rows (OFFSET), tolerating an offset
// past end of result.
func dropOffset(rows [][]types.Datum, off int64) [][]types.Datum {
	if off <= 0 {
		return rows
	}
	if off >= int64(len(rows)) {
		return nil
	}
	return rows[off:]
}

// SortOp materializes and orders its input, spilling sorted runs to the
// scratch directory when the memory governor denies growth. The rows stay
// columnar throughout: they accumulate in a rowStore, the sort permutes an
// index over the key columns, and emission gathers a batch at a time in
// index order. Under a parallel plan the planner clones it below the merge
// exchange, one locally sorted run per worker (paper §5.1: every relational
// operator runs on the executor slots, the coordinator only merges) — each
// clone accounts and spills independently against the shared governor.
type SortOp struct {
	Input Operator
	Keys  []plan.SortKey
	// Ctx supplies the memory governor and spill target; nil means
	// ungoverned in-memory sorting (operator trees built outside a query).
	Ctx *Context

	store   *rowStore // resident rows plus the spilled runs, in arrival order
	idx     []int32   // the resident rows in key order, once sorted
	sorted  bool
	emitted int
	lt      *loserTree
}

// Types implements Operator.
func (s *SortOp) Types() []types.T { return s.Input.Types() }

// Open implements Operator.
func (s *SortOp) Open() error {
	s.store = newRowStore(s.Ctx, "sort", "sort_run", s.Input.Types())
	s.idx, s.sorted, s.emitted, s.lt = nil, false, 0, nil
	return s.Input.Open()
}

// sortResident returns the resident rows' ordinals in key order, arrival
// order breaking ties. The index and the merge buffer are resident state
// too, taken without a denial path: they go back with the run's flush or at
// Close.
func (s *SortOp) sortResident() ([]int32, error) {
	n := s.store.n
	s.store.res.ForceGrow(int64(n) * 8)
	idx := identityIndex(n)
	if err := sortIndex(s.Ctx, idx, make([]int32, n), rowComparator(s.store.cols, s.Keys)); err != nil {
		return nil, err
	}
	return idx, nil
}

// consume drains the input into the store, cutting a sorted run whenever
// the governor denies the reservation and enough has accumulated. Runs are
// written in arrival order, which the drain's tie-break exploits to
// reproduce the stable in-memory sort. Without a scratch directory the
// budget is observable but not enforceable here.
func (s *SortOp) consume() error {
	for {
		if err := s.Ctx.CheckCanceled(); err != nil {
			return err
		}
		b, err := s.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if !s.store.appendBatch(b) {
			continue
		}
		idx, err := s.sortResident()
		if err != nil {
			return err
		}
		if err := s.store.flush(idx); err != nil {
			return err
		}
	}
}

// nextResident gathers the next batch of resident rows in key order.
func (s *SortOp) nextResident() (*vector.Batch, error) {
	if s.emitted >= len(s.idx) {
		return nil, nil
	}
	lo := s.emitted
	s.emitted = min(lo+vector.BatchSize, len(s.idx))
	return s.store.gather(s.idx[lo:s.emitted]), nil
}

// Next implements Operator.
func (s *SortOp) Next() (*vector.Batch, error) {
	if !s.sorted {
		if err := s.consume(); err != nil {
			return nil, err
		}
		idx, err := s.sortResident()
		if err != nil {
			return nil, err
		}
		s.idx = idx
		if runs := s.store.runs; len(runs) > 0 {
			// External drain: merge the file-backed runs and the resident
			// remainder. The remainder holds the latest-arrived rows, so it
			// takes the highest run index — ties resolve toward earlier
			// arrival, exactly like the stable in-memory sort.
			fs, _ := s.Ctx.spillTarget()
			cursors := make([]*runCursor, 0, len(runs)+1)
			for _, path := range runs {
				cursors = append(cursors, fileRunCursor(fs, path, s.Types()))
			}
			if len(s.idx) > 0 {
				cursors = append(cursors, &runCursor{pull: s.nextResident})
			}
			for _, c := range cursors {
				if !c.advance() && c.err != nil {
					return nil, c.err
				}
			}
			s.lt = newLoserTree(cursors, sortCompareAt(s.Keys))
		}
		s.sorted = true
	}
	if s.lt != nil {
		return s.lt.emit(s.Types(), nil)
	}
	return s.nextResident()
}

// Close implements Operator. Spilled run files are removed here, so a
// query that closes its operators — normally or mid-error — leaves no
// scratch files behind.
func (s *SortOp) Close() error {
	s.store.close()
	s.idx, s.lt = nil, nil
	return s.Input.Close()
}

// Child implements Node.
func (s *SortOp) Child(i int) *Operator { return oneChild(i, &s.Input) }

// Describe implements Node.
func (s *SortOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "Sort keys=%s", sortKeysDigest(s.Keys))
}

// Stage implements Node.
func (s *SortOp) Stage() Stage { return StageVertex | StageBreaker }

// Delivers implements the property fact.
func (s *SortOp) Delivers() plan.Properties { return plan.Properties{Ordering: s.Keys} }

// topNHeap is a bounded max-heap keeping the limit smallest rows under a
// key comparator. Ties order by arrival: the heap both evicts latest-among-
// equals and sorts earliest-first, so its output matches a stable sort
// truncated to the limit — serial TopN results are unchanged by the heap.
type topNHeap struct {
	limit   int64
	keys    []plan.SortKey
	cmp     func(a, b []types.Datum) int
	rows    [][]types.Datum
	seqs    []int64
	nextSeq int64
	// res accounts the kept rows (nil: ungoverned). The heap is bounded by
	// the query's LIMIT, not by the budget, so the bytes are force-taken:
	// the governor sees them, it cannot refuse them.
	res *Reservation
}

func newTopNHeap(keys []plan.SortKey, limit int64, res *Reservation) *topNHeap {
	return &topNHeap{limit: limit, keys: keys, cmp: sortCompare(keys), res: res}
}

// before reports whether row (a, seqA) orders ahead of (b, seqB): by the
// sort keys, then by arrival order.
func (h *topNHeap) before(a []types.Datum, seqA int64, b []types.Datum, seqB int64) bool {
	if c := h.cmp(a, b); c != 0 {
		return c < 0
	}
	return seqA < seqB
}

// beforeAt compares heap slots.
func (h *topNHeap) beforeAt(i, j int) bool {
	return h.before(h.rows[i], h.seqs[i], h.rows[j], h.seqs[j])
}

// push offers live row i of b. A full heap compares the offer with its
// worst kept row in place, on the batch's column vectors, and boxes only a
// row that gets in — most of a large input never leaves its vectors.
func (h *topNHeap) push(b *vector.Batch, i int) {
	if h.limit <= 0 || (int64(len(h.rows)) >= h.limit && !h.beatsWorst(b, i)) {
		return
	}
	h.add(b.Row(i))
}

// beatsWorst reports whether live row i of b orders ahead of the worst kept
// row. An offer that ties it on every key arrived later and loses.
func (h *topNHeap) beatsWorst(b *vector.Batch, i int) bool {
	worst, r := h.rows[0], b.RowIdx(i)
	for _, k := range h.keys {
		if c := compareKey(k, b.Cols[k.Col].Get(r), worst[k.Col]); c != 0 {
			return c < 0
		}
	}
	return false
}

// add offers a boxed row; when the heap is full it replaces the current
// worst row if the offer orders ahead of it, else drops the offer.
func (h *topNHeap) add(row []types.Datum) {
	if h.limit <= 0 {
		return
	}
	seq := h.nextSeq
	h.nextSeq++
	if int64(len(h.rows)) < h.limit {
		h.res.ForceGrow(rowBytes(row))
		h.rows = append(h.rows, row)
		h.seqs = append(h.seqs, seq)
		h.up(len(h.rows) - 1)
		return
	}
	if h.before(row, seq, h.rows[0], h.seqs[0]) {
		h.res.Shrink(rowBytes(h.rows[0]))
		h.res.ForceGrow(rowBytes(row))
		h.rows[0], h.seqs[0] = row, seq
		h.down(0, len(h.rows))
	}
}

func (h *topNHeap) swap(i, j int) {
	h.rows[i], h.rows[j] = h.rows[j], h.rows[i]
	h.seqs[i], h.seqs[j] = h.seqs[j], h.seqs[i]
}

// up restores the max-heap invariant (root = worst kept row) from leaf i.
func (h *topNHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.beforeAt(p, i) {
			h.swap(p, i)
			i = p
			continue
		}
		return
	}
}

// down restores the invariant from node i over the first n slots.
func (h *topNHeap) down(i, n int) {
	for {
		worst := i
		if l := 2*i + 1; l < n && h.beforeAt(worst, l) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.beforeAt(worst, r) {
			worst = r
		}
		if worst == i {
			return
		}
		h.swap(i, worst)
		i = worst
	}
}

// sorted extracts the kept rows in key order (heap sort in place; the heap
// is spent afterwards).
func (h *topNHeap) sorted() [][]types.Datum {
	for n := len(h.rows) - 1; n > 0; n-- {
		h.swap(0, n)
		h.down(0, n)
	}
	return h.rows
}

// TopNOp keeps the (N + Offset) smallest rows under the sort keys in a
// bounded heap instead of a full materialized sort — the physical
// optimization for ORDER BY + LIMIT [OFFSET]. The kept rows are accounted
// with the memory governor under "topn"; the offset rows are skipped at
// emission. N == 0 short-circuits to EOF without opening or draining the
// input.
type TopNOp struct {
	Input  Operator
	Keys   []plan.SortKey
	N      int64
	Offset int64
	Ctx    *Context

	res    *Reservation
	out    batchViews // the kept rows past the offset, in key order
	done   bool
	opened bool
}

// Types implements Operator.
func (t *TopNOp) Types() []types.T { return t.Input.Types() }

// Open implements Operator.
func (t *TopNOp) Open() error {
	t.out = batchViews{}
	if t.N <= 0 {
		// LIMIT 0: the input is never opened, let alone drained.
		t.done, t.opened = true, false
		return nil
	}
	t.done, t.opened = false, true
	if t.res == nil {
		t.res = t.Ctx.Governor().Reserve("topn")
	}
	return t.Input.Open()
}

// consume drains the input into a bounded heap and returns the N + Offset
// best rows in key order. The parallel planner reuses it for per-worker
// runs (merge.go).
func (t *TopNOp) consume() ([][]types.Datum, error) {
	h := newTopNHeap(t.Keys, t.N+t.Offset, t.res)
	for {
		if err := t.Ctx.CheckCanceled(); err != nil {
			return nil, err
		}
		b, err := t.Input.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return h.sorted(), nil
		}
		for i := 0; i < b.N; i++ {
			h.push(b, i)
		}
	}
}

// Next implements Operator.
func (t *TopNOp) Next() (*vector.Batch, error) {
	if !t.done {
		rows, err := t.consume()
		if err != nil {
			return nil, err
		}
		t.out.b = rowsBatch(dropOffset(rows, t.Offset), t.Types())
		t.done = true
	}
	return t.out.next(), nil
}

// Close implements Operator.
func (t *TopNOp) Close() error {
	t.out = batchViews{}
	t.res.Release()
	if !t.opened {
		return nil
	}
	return t.Input.Close()
}

// Child implements Node.
func (t *TopNOp) Child(i int) *Operator { return oneChild(i, &t.Input) }

// Describe implements Node.
func (t *TopNOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "TopN n=%d keys=%s", t.N, sortKeysDigest(t.Keys))
}

// Stage implements Node.
func (t *TopNOp) Stage() Stage { return StageVertex | StageBreaker }

// Delivers implements the property fact.
func (t *TopNOp) Delivers() plan.Properties { return plan.Properties{Ordering: t.Keys} }
