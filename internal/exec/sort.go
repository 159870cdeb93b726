// Sorting operators: memory-governed external sort (ORDER BY), bounded-heap
// TopN (ORDER BY + LIMIT [OFFSET]) and the row comparator they share with
// the parallel merge exchange (merge.go). Under a parallel plan each worker
// produces a locally sorted run with these same operators, so the
// comparator must be identical across the serial sort, the per-worker runs
// and the k-way merge for parallel ORDER BY to reproduce serial output
// exactly.
//
// SortOp is beyond-memory capable: rows are accounted against the query's
// memory governor, and when a reservation is denied the accumulated rows
// stable-sort into a run spilled to the DFS scratch directory. The drain
// then merges the file-backed runs and the in-memory remainder through the
// same loser tree the parallel merge uses. Runs spill in arrival order and
// ties break toward the lower run index, so the merged output reproduces
// the in-memory stable sort byte for byte.
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
// It is the single ordering definition shared by SortOp, the TopN heaps,
// the loser-tree merge and the parallel planner's sorted-run workers.
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

// sortCompare builds the 3-way row comparator for a key set; a single call
// answers both orderings, which the heaps and the loser tree need to
// detect ties without comparing twice.
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

// sortCompareAt is sortCompare over batch rows in place — the allocation-
// free form for the merge's hot loop (Batch.Row materializes a datum slice
// per call and is documented as not for hot loops).
func sortCompareAt(keys []plan.SortKey) func(ab *vector.Batch, ai int, bb *vector.Batch, bi int) int {
	return func(ab *vector.Batch, ai int, bb *vector.Batch, bi int) int {
		ar, br := ab.RowIdx(ai), bb.RowIdx(bi)
		for _, k := range keys {
			if c := compareKey(k, ab.Cols[k.Col].Get(ar), bb.Cols[k.Col].Get(br)); c != 0 {
				return c
			}
		}
		return 0
	}
}

func sortLess(keys []plan.SortKey) func(a, b []types.Datum) bool {
	cmp := sortCompare(keys)
	return func(a, b []types.Datum) bool { return cmp(a, b) < 0 }
}

func sortRows(rows [][]types.Datum, keys []plan.SortKey) {
	stableSort(rows, sortLess(keys))
}

// stableSort is a merge sort keeping input order for equal keys.
func stableSort(rows [][]types.Datum, less func(a, b []types.Datum) bool) {
	if len(rows) < 2 {
		return
	}
	tmp := make([][]types.Datum, len(rows))
	var ms func(lo, hi int)
	ms = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		mid := (lo + hi) / 2
		ms(lo, mid)
		ms(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if less(rows[j], rows[i]) {
				tmp[k] = rows[j]
				j++
			} else {
				tmp[k] = rows[i]
				i++
			}
			k++
		}
		for i < mid {
			tmp[k] = rows[i]
			i++
			k++
		}
		for j < hi {
			tmp[k] = rows[j]
			j++
			k++
		}
		copy(rows[lo:hi], tmp[lo:hi])
	}
	ms(0, len(rows))
}

// emitRows renders rows starting at ordinal start into a batch, or nil when
// exhausted (shared emission loop of the materializing operators).
func emitRows(rows [][]types.Datum, start int, ts []types.T) *vector.Batch {
	if start >= len(rows) {
		return nil
	}
	n := len(rows) - start
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	out := vector.NewBatch(ts, n)
	for i := 0; i < n; i++ {
		for c, d := range rows[start+i] {
			out.Cols[c].Set(i, d)
		}
	}
	out.N = n
	return out
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
// scratch directory when the memory governor denies growth. Under a
// parallel plan the planner clones it below the merge exchange, one locally
// sorted run per worker (paper §5.1: every relational operator runs on the
// executor slots, the coordinator only merges) — each clone accounts and
// spills independently against the shared governor.
type SortOp struct {
	Input Operator
	Keys  []plan.SortKey
	// Ctx supplies the memory governor and spill target; nil means
	// ungoverned in-memory sorting (operator trees built outside a query).
	Ctx *Context

	rows    [][]types.Datum
	sorted  bool
	emitted int
	res     *Reservation
	runs    []string // spilled run files, in arrival order
	lt      *loserTree
}

// Types implements Operator.
func (s *SortOp) Types() []types.T { return s.Input.Types() }

// Open implements Operator.
func (s *SortOp) Open() error {
	s.rows, s.sorted, s.emitted = nil, false, 0
	s.runs, s.lt = nil, nil
	s.res = s.Ctx.Governor().Reserve("sort")
	return s.Input.Open()
}

// spillRun stable-sorts the accumulated rows into a run file and frees
// their memory. Runs are written in arrival order, which the drain's
// tie-break exploits to reproduce the stable in-memory sort.
func (s *SortOp) spillRun() error {
	sortRows(s.rows, s.Keys)
	path, err := writeRunFile(s.Ctx, "sort_run", s.rows)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, path)
	s.rows = nil
	s.res.Release()
	return nil
}

// consume drains the input, accounting batch by batch and spilling a run
// whenever the governor denies the reservation.
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
		var sz int64
		for i := 0; i < b.N; i++ {
			//lint:ignore no-row-boxing SortOp sorts boxed rows (1363 ns/row); follow-up: columnar run store with an index sort (ROADMAP 5b)
			row := b.Row(i)
			s.rows = append(s.rows, row)
			sz += rowBytes(row)
		}
		if s.res.Grow(sz) {
			continue
		}
		// The rows are resident either way; take the bytes, then cut a run
		// if enough has accumulated. Without a scratch directory the
		// budget is observable but not enforceable here.
		s.res.ForceGrow(sz)
		if _, ok := s.Ctx.spillTarget(); !ok || !s.res.ShouldSpill() {
			continue
		}
		if err := s.spillRun(); err != nil {
			return err
		}
	}
}

// Next implements Operator.
func (s *SortOp) Next() (*vector.Batch, error) {
	if !s.sorted {
		if err := s.consume(); err != nil {
			return nil, err
		}
		sortRows(s.rows, s.Keys)
		if len(s.runs) > 0 {
			// External drain: merge the file-backed runs and the in-memory
			// remainder. The remainder holds the latest-arrived rows, so it
			// takes the highest run index — ties resolve toward earlier
			// arrival, exactly like the stable in-memory sort.
			fs, _ := s.Ctx.spillTarget()
			cursors := make([]*runCursor, 0, len(s.runs)+1)
			for _, path := range s.runs {
				cursors = append(cursors, fileRunCursor(fs, path, s.Types()))
			}
			if len(s.rows) > 0 {
				cursors = append(cursors, memRunCursor(s.rows, s.Types()))
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
	out := emitRows(s.rows, s.emitted, s.Types())
	if out == nil {
		return nil, nil
	}
	s.emitted += out.N
	return out, nil
}

// Close implements Operator. Spilled run files are removed here, so a
// query that closes its operators — normally or mid-error — leaves no
// scratch files behind.
func (s *SortOp) Close() error {
	s.Ctx.removeSpills(s.runs)
	s.rows, s.runs, s.lt = nil, nil, nil
	s.res.Release()
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
	cmp     func(a, b []types.Datum) int
	rows    [][]types.Datum
	seqs    []int64
	nextSeq int64
}

func newTopNHeap(keys []plan.SortKey, limit int64) *topNHeap {
	return &topNHeap{limit: limit, cmp: sortCompare(keys)}
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

// push offers a row; when the heap is full it replaces the current worst
// row if the offer orders ahead of it, else drops the offer.
func (h *topNHeap) push(row []types.Datum) {
	if h.limit <= 0 {
		return
	}
	seq := h.nextSeq
	h.nextSeq++
	if int64(len(h.rows)) < h.limit {
		h.rows = append(h.rows, row)
		h.seqs = append(h.seqs, seq)
		h.up(len(h.rows) - 1)
		return
	}
	if h.before(row, seq, h.rows[0], h.seqs[0]) {
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
// optimization for ORDER BY + LIMIT [OFFSET]. The offset rows are skipped
// at emission. N == 0 short-circuits to EOF without opening or draining
// the input.
type TopNOp struct {
	Input  Operator
	Keys   []plan.SortKey
	N      int64
	Offset int64
	Ctx    *Context

	rows    [][]types.Datum
	done    bool
	emitted int
	opened  bool
}

// Types implements Operator.
func (t *TopNOp) Types() []types.T { return t.Input.Types() }

// Open implements Operator.
func (t *TopNOp) Open() error {
	t.rows, t.emitted = nil, 0
	if t.N <= 0 {
		// LIMIT 0: the input is never opened, let alone drained.
		t.done, t.opened = true, false
		return nil
	}
	t.done, t.opened = false, true
	return t.Input.Open()
}

// consume drains the input into a bounded heap of the N best rows. The
// parallel planner reuses it for per-worker runs (merge.go).
func (t *TopNOp) consume() error {
	h := newTopNHeap(t.Keys, t.N+t.Offset)
	for {
		if err := t.Ctx.CheckCanceled(); err != nil {
			return err
		}
		b, err := t.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			//lint:ignore no-row-boxing TopN boxes every input row before the heap rejects it; follow-up: compare in place, box only rows that enter the heap
			h.push(b.Row(i))
		}
	}
	t.rows = dropOffset(h.sorted(), t.Offset)
	return nil
}

// Next implements Operator.
func (t *TopNOp) Next() (*vector.Batch, error) {
	if !t.done {
		if err := t.consume(); err != nil {
			return nil, err
		}
		t.done = true
	}
	out := emitRows(t.rows, t.emitted, t.Types())
	if out == nil {
		return nil, nil
	}
	t.emitted += out.N
	return out, nil
}

// Close implements Operator.
func (t *TopNOp) Close() error {
	t.rows = nil
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
