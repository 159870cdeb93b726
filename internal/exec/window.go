// Window functions, memory-governed and beyond-memory capable.
//
// WindowOp groups its functions by (PARTITION BY, ORDER BY) spec and runs
// one partition/order pass per group instead of one per function. The input
// materializes into a columnar rowStore under the query's memory governor
// and stays columnar: a group's pass is a stable index sort over the key
// columns, partition and peer boundaries are comparisons of adjacent
// ordinals, each aggregate's argument is evaluated once as a vector over the
// whole row set, and results land by row ordinal in typed result vectors —
// so emission in arrival order is views of the stored columns beside views
// of the result vectors. When a reservation is denied the accumulated rows
// flush to arrival-order chunk files on the DFS scratch directory and the
// compute pass switches to an external plan built from the same SortOp
// machinery the rest of the engine spills through:
//
//	input chunks ── sort by (partition cols, order keys, seq) ──┐
//	                one partition resident at a time: eval fns  │ per group
//	                result rows (seq, values…) sort by seq ─────┘
//	input chunks ── zip with each group's seq-ordered results ── output
//
// Both paths order partitions with the same comparator, break ties by
// arrival and evaluate partitions with the same windowEval, so spilled
// output is byte-identical to the in-memory path — which emits rows in
// arrival order, the operator's contract either way.
//
// Aggregate functions with an ORDER BY run under the SQL default frame
// (RANGE UNBOUNDED PRECEDING TO CURRENT ROW): peer rows — equal order
// keys — share one frame, so each peer group accumulates as a unit and
// every row in it receives the same result. Without ORDER BY the frame is
// the whole partition.
package exec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// windowGroup is one shared partition/order pass: every function with the
// same (PARTITION BY, ORDER BY) spec computes in it.
type windowGroup struct {
	partitionBy []int
	orderBy     []plan.SortKey
	fnIdx       []int           // indices into WindowOp.Fns, in plan order
	args        []*CompiledExpr // compiled argument per fnIdx entry (nil for arg-less)
}

// groupKey canonicalizes a function's partition/order spec.
func windowGroupKey(fn plan.WindowFn) string {
	var b strings.Builder
	for _, c := range fn.PartitionBy {
		fmt.Fprintf(&b, "p%d,", c)
	}
	b.WriteByte('|')
	for _, k := range fn.OrderBy {
		b.WriteString(k.Digest())
		b.WriteByte(',')
	}
	return b.String()
}

// buildWindowGroups compiles the function arguments and buckets the
// functions by spec, preserving plan order within each group.
func buildWindowGroups(fns []plan.WindowFn, inTypes []types.T) ([]windowGroup, error) {
	var groups []windowGroup
	byKey := map[string]int{}
	for fi, fn := range fns {
		var arg *CompiledExpr
		if fn.Arg != nil {
			e, err := Compile(fn.Arg, inTypes)
			if err != nil {
				return nil, err
			}
			arg = e
		}
		k := windowGroupKey(fn)
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, windowGroup{partitionBy: fn.PartitionBy, orderBy: fn.OrderBy})
		}
		groups[gi].fnIdx = append(groups[gi].fnIdx, fi)
		groups[gi].args = append(groups[gi].args, arg)
	}
	return groups, nil
}

// sortKeys returns the group's full ordering: partition columns first (any
// consistent direction groups equal keys contiguously — compareKey == 0
// exactly when datumsEqual holds), then the window order keys. seqCol >= 0
// appends the arrival-sequence column as the final tie-break, which the
// external path needs because a file sort has no stable-arrival guarantee
// of its own.
func (g *windowGroup) sortKeys(seqCol int) []plan.SortKey {
	keys := append(partitionKeys(g.partitionBy), g.orderBy...)
	if seqCol >= 0 {
		keys = append(keys, plan.SortKey{Col: seqCol})
	}
	return keys
}

// partitionKeys returns the partition columns as ascending sort keys: two
// rows share a partition exactly when they compare equal under them.
func partitionKeys(cols []int) []plan.SortKey {
	keys := make([]plan.SortKey, len(cols))
	for i, c := range cols {
		keys[i] = plan.SortKey{Col: c}
	}
	return keys
}

// windowEval evaluates one spec group's functions over ordered partitions
// of a columnar row set. Rows are ordinals into the columns it was built
// over — the whole resident store, or the one partition the external pass
// holds — and results are written by ordinal into out, so neither pass
// boxes a row.
type windowEval struct {
	fns   []plan.WindowFn
	aggs  []CompiledAgg
	args  []*vector.Vector     // per function: its argument over every row, nil when it takes none
	order func(a, b int32) int // order-key comparison of two rows; nil without ORDER BY
	out   []*vector.Vector     // per function: the result column
	// argBytes is what the computed argument vectors hold, for the caller to
	// account; a bare column reference is the stored column itself.
	argBytes int64
}

// newWindowEval prepares group g over n rows of cols: every aggregate
// argument is evaluated once, as a vector over all n rows. out holds one
// n-row result column per function of the group.
func newWindowEval(g *windowGroup, fns []plan.WindowFn, cols []*vector.Vector, n int, out []*vector.Vector) (*windowEval, error) {
	ev := &windowEval{out: out}
	rows := &vector.Batch{Cols: cols, N: n}
	for i, fi := range g.fnIdx {
		fn := fns[fi]
		switch fn.Fn {
		case "row_number", "rank", "dense_rank", "count", "sum", "avg", "min", "max":
		default:
			return nil, fmt.Errorf("exec: unsupported window function %s", fn.Fn)
		}
		var arg *vector.Vector
		if g.args[i] != nil {
			v, err := g.args[i].Eval(rows)
			if err != nil {
				return nil, err
			}
			arg = v
			if _, bare := g.args[i].ColRef(); !bare {
				ev.argBytes += v.CapBytes()
			}
		}
		ev.fns = append(ev.fns, fn)
		ev.aggs = append(ev.aggs, CompiledAgg{Fn: fn.Fn, T: fn.T, Arg: g.args[i]})
		ev.args = append(ev.args, arg)
	}
	if len(g.orderBy) > 0 {
		ev.order = rowComparator(cols, g.orderBy)
	}
	return ev, nil
}

// peerEnd returns the end of the peer group starting at part[lo]: the rows
// with equal order keys, which are consecutive because part is sorted by
// them. Without an ORDER BY the whole partition is one peer group.
func (ev *windowEval) peerEnd(part []int32, lo int) int {
	if ev.order == nil {
		return len(part)
	}
	hi := lo + 1
	for hi < len(part) && ev.order(part[hi-1], part[hi]) == 0 {
		hi++
	}
	return hi
}

// partition computes every function of the group over one partition, given
// as row ordinals in partition order.
//
// Ranking functions number peer groups. Aggregates with an ORDER BY
// accumulate peer group by peer group — rows with equal order keys form one
// frame and share one result (the RANGE-frame default); aggregates without
// an ORDER BY cover the whole partition.
func (ev *windowEval) partition(part []int32) {
	for i, fn := range ev.fns {
		out := ev.out[i]
		switch fn.Fn {
		case "row_number":
			for k, r := range part {
				out.Set(int(r), types.NewBigint(int64(k+1)))
			}
		case "rank", "dense_rank":
			dense := int64(0)
			for lo := 0; lo < len(part); {
				hi := ev.peerEnd(part, lo)
				dense++
				v := types.NewBigint(dense)
				if fn.Fn == "rank" {
					v = types.NewBigint(int64(lo + 1))
				}
				for _, r := range part[lo:hi] {
					out.Set(int(r), v)
				}
				lo = hi
			}
		default:
			var st aggState
			ag, arg := ev.aggs[i], ev.args[i]
			for lo := 0; lo < len(part); {
				hi := ev.peerEnd(part, lo)
				for _, r := range part[lo:hi] {
					d := types.NewBigint(1)
					if arg != nil {
						d = arg.Get(int(r))
					}
					st.update(ag, d)
				}
				v := st.result(ag)
				for _, r := range part[lo:hi] {
					out.Set(int(r), v)
				}
				lo = hi
			}
		}
	}
}

// eachPartition calls fn with every maximal run of idx whose rows compare
// equal under same — the partitions of an index grouped by the partition
// columns — polling for cancellation once per partition.
func eachPartition(ctx *Context, idx []int32, same func(a, b int32) int, fn func(part []int32) error) error {
	for lo := 0; lo < len(idx); {
		if err := ctx.CheckCanceled(); err != nil {
			return err
		}
		hi := lo + 1
		for hi < len(idx) && same(idx[lo], idx[hi]) == 0 {
			hi++
		}
		if err := fn(idx[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// WindowOp computes window functions over a materialized input, appending
// one column per function; rows emit in arrival order. The materialized
// state is governed: input beyond the budget flushes to arrival-order
// chunk files and the compute pass runs externally (see the package
// comment for the plan), byte-identical to the in-memory path.
type WindowOp struct {
	Input Operator
	Fns   []plan.WindowFn
	Out   []types.T
	// Ctx supplies the memory governor and spill target; nil means
	// ungoverned in-memory computation (operator trees built outside a
	// query).
	Ctx *Context

	groups []windowGroup
	store  *rowStore // governed columnar input store, arrival order (mem.go)
	done   bool

	// Resident emission state: the store's columns beside one result column
	// per function, handed out as views.
	out batchViews

	// External emission state: the input replay plus one seq-sorted result
	// feed per group, zipped batch by batch.
	pipes    []Operator
	replay   func() (*vector.Batch, error)
	resFeeds []*batchFeed
}

// Types implements Operator.
func (w *WindowOp) Types() []types.T { return w.Out }

// Open implements Operator.
func (w *WindowOp) Open() error {
	g, err := buildWindowGroups(w.Fns, w.Input.Types())
	if err != nil {
		return err
	}
	w.groups = g
	w.store = newRowStore(w.Ctx, "window", "window_in", w.Input.Types())
	w.done = false
	w.out = batchViews{}
	w.pipes, w.replay, w.resFeeds = nil, nil, nil
	return w.Input.Open()
}

// consume drains the input into the governed row store. A denied
// reservation flushes the resident rows as one arrival-order chunk file —
// not sorted: the chunks are replayed once per group sort and once for
// final emission.
func (w *WindowOp) consume() error {
	for {
		if err := w.Ctx.CheckCanceled(); err != nil {
			return err
		}
		b, err := w.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := w.store.appendOrFlush(b); err != nil {
			return err
		}
	}
}

// computeResident is the in-memory pass: per group, one stable index sort
// by (partition cols, order keys) — arrival order breaks ties — then one
// evaluation per contiguous partition, written back by row ordinal.
func (w *WindowOp) computeResident() error {
	st := w.store
	n, inW := st.n, len(st.cols)
	// The result columns, the sort index and its merge buffer are resident
	// state too: account them (observable peak) without a denial path — the
	// spill decision already happened during consume.
	held := int64(n) * 8
	results := make([]*vector.Vector, len(w.Fns))
	for fi := range w.Fns {
		results[fi] = vector.New(w.Out[inW+fi], n)
		held += results[fi].CapBytes()
	}
	st.res.ForceGrow(held)
	w.out.b = &vector.Batch{Cols: append(st.cols[:inW:inW], results...), N: n}
	evals := make([]*windowEval, len(w.groups))
	for gi := range w.groups {
		g := &w.groups[gi]
		out := make([]*vector.Vector, len(g.fnIdx))
		for i, fi := range g.fnIdx {
			out[i] = results[fi]
		}
		ev, err := newWindowEval(g, w.Fns, st.cols, n, out)
		if err != nil {
			return err
		}
		st.res.ForceGrow(ev.argBytes)
		evals[gi] = ev
	}
	var delivered []plan.SortKey
	if w.Ctx.propsOn() {
		delivered = DeliveredProps(w.Input).Ordering
	}
	wp := planWindowGroups(w.groups, delivered, w.Ctx.propsOn())
	tmp := make([]int32, n)
	// pass evaluates group gi over idx once idx is sorted by keys; no keys
	// (count(*) OVER (), or a presorted group) leaves idx in arrival order.
	pass := func(gi int, keys []plan.SortKey) error {
		g, idx := &w.groups[gi], identityIndex(n)
		if len(keys) > 0 {
			if err := sortIndex(w.Ctx, idx, tmp, rowComparator(st.cols, keys)); err != nil {
				return err
			}
		}
		return eachPartition(w.Ctx, idx, rowComparator(st.cols, partitionKeys(g.partitionBy)), func(part []int32) error {
			evals[gi].partition(part)
			return nil
		})
	}
	// Presorted groups: the input already delivers (partition, order), and
	// the stable sort's arrival tie-break would reproduce the delivered
	// order exactly — so the identity permutation IS the sorted one.
	for gi := range w.groups {
		if wp.presorted[gi] {
			if err := pass(gi, nil); err != nil {
				return err
			}
		}
	}
	for _, gi := range wp.solo {
		if err := pass(gi, w.groups[gi].sortKeys(-1)); err != nil {
			return err
		}
	}
	for _, bucket := range wp.shared {
		if err := w.evalSharedPartitionPass(bucket, evals, tmp); err != nil {
			return err
		}
	}
	return nil
}

// evalSharedPartitionPass runs one partition pass for a bucket of groups
// that share a PARTITION BY column set: a single stable sort by the
// partition columns, then per contiguous partition a per-group stable
// sub-sort by that group's order keys.
//
// Byte-identity: the partition sort leaves rows within a partition in
// arrival order, so the orderBy sub-sort yields rows ordered by orderBy
// with arrival tie-break — exactly the permutation the group's solo
// (partition, order) sort would produce. Results land by row ordinal, so
// partition visit order never shows.
func (w *WindowOp) evalSharedPartitionPass(bucket []int, evals []*windowEval, tmp []int32) error {
	samePart := rowComparator(w.store.cols, partitionKeys(partSetCols(w.groups[bucket[0]].partitionBy)))
	pidx := identityIndex(w.store.n)
	if err := sortIndex(w.Ctx, pidx, tmp, samePart); err != nil {
		return err
	}
	var sub []int32
	return eachPartition(w.Ctx, pidx, samePart, func(part []int32) error {
		for _, gi := range bucket {
			rows := part
			if order := evals[gi].order; order != nil {
				sub = append(sub[:0], part...)
				if err := sortIndex(w.Ctx, sub, tmp, order); err != nil {
					return err
				}
				rows = sub
			}
			evals[gi].partition(rows)
		}
		return nil
	})
}

// windowPlan classifies a WindowOp's spec groups by how their
// (partition, order) requirement will be met: presorted groups find it
// already delivered by the input, shared buckets (≥2 groups on one
// PARTITION BY column set) split one partition pass, solo groups sort for
// themselves — the enforcer-everywhere default.
type windowPlan struct {
	presorted []bool
	shared    [][]int
	solo      []int
}

func planWindowGroups(groups []windowGroup, delivered []plan.SortKey, propsOn bool) windowPlan {
	wp := windowPlan{presorted: make([]bool, len(groups))}
	if !propsOn {
		for gi := range groups {
			wp.solo = append(wp.solo, gi)
		}
		return wp
	}
	byPart := map[string][]int{}
	for gi := range groups {
		g := &groups[gi]
		if windowSortSatisfied(delivered, g) {
			wp.presorted[gi] = true
			continue
		}
		if len(g.partitionBy) == 0 {
			wp.solo = append(wp.solo, gi)
			continue
		}
		byPart[partSetKey(g.partitionBy)] = append(byPart[partSetKey(g.partitionBy)], gi)
	}
	// Emit buckets in first-seen group order for deterministic plans.
	done := map[string]bool{}
	for gi := range groups {
		g := &groups[gi]
		if wp.presorted[gi] || len(g.partitionBy) == 0 {
			continue
		}
		k := partSetKey(g.partitionBy)
		if done[k] {
			continue
		}
		done[k] = true
		if b := byPart[k]; len(b) >= 2 {
			wp.shared = append(wp.shared, b)
		} else {
			wp.solo = append(wp.solo, b...)
		}
	}
	return wp
}

// partSetCols returns the sorted, deduplicated partition column set.
func partSetCols(cols []int) []int {
	s := append([]int(nil), cols...)
	sort.Ints(s)
	out := s[:0]
	for i, c := range s {
		if i == 0 || c != s[i-1] {
			out = append(out, c)
		}
	}
	return out
}

func partSetKey(cols []int) string {
	var b strings.Builder
	for _, c := range partSetCols(cols) {
		fmt.Fprintf(&b, "%d,", c)
	}
	return b.String()
}

// computeExternal assembles the spilled plan: per group a
// SortOp(replay+seq) → windowEvalOp → SortOp(by seq) pipeline, then
// lockstep feeds for emission. Each group primes sequentially so only one
// group's sort drain is in flight at a time; the SortOps account and spill
// against the shared governor, and their Close (via w.pipes) removes every
// run they wrote.
func (w *WindowOp) computeExternal() error {
	inTypes := w.Input.Types()
	seqCol := len(inTypes)
	w.resFeeds = make([]*batchFeed, len(w.groups))
	for gi := range w.groups {
		g := &w.groups[gi]
		srt := &SortOp{Input: &windowReplayOp{w: w}, Keys: g.sortKeys(seqCol), Ctx: w.Ctx}
		ev := &windowEvalOp{Input: srt, g: g, fns: w.Fns, seqCol: seqCol, ctx: w.Ctx}
		res := &SortOp{Input: ev, Keys: []plan.SortKey{{Col: 0}}, Ctx: w.Ctx}
		if err := res.Open(); err != nil {
			return err
		}
		w.pipes = append(w.pipes, res)
		w.resFeeds[gi] = &batchFeed{op: res, ctx: w.Ctx}
		// Prime: the first pull drains the whole chain (SortOp consumes to
		// EOF before emitting), so the group's input copy lives exactly as
		// long as its pass — closing the upstream now frees the group
		// sort's rows and runs before the next group starts. res keeps
		// only the seq-sorted result rows. Close is idempotent, so the
		// later cascade from res.Close is harmless.
		if err := w.resFeeds[gi].prime(); err != nil {
			return err
		}
		ev.Close()
	}
	w.replay = w.store.replay()
	return nil
}

func (w *WindowOp) compute() error {
	if err := w.consume(); err != nil {
		return err
	}
	if !w.store.spilled {
		return w.computeResident()
	}
	return w.computeExternal()
}

// Next implements Operator.
func (w *WindowOp) Next() (*vector.Batch, error) {
	if !w.done {
		if err := w.compute(); err != nil {
			return nil, err
		}
		w.done = true
	}
	if w.store.spilled {
		return w.nextExternal()
	}
	return w.out.next(), nil
}

// nextExternal zips the input replay with every group's seq-sorted result
// stream: all run in arrival order over the same row count, so the next n
// rows of each feed describe the n rows of the replayed batch.
func (w *WindowOp) nextExternal() (*vector.Batch, error) {
	if err := w.Ctx.CheckCanceled(); err != nil {
		return nil, err
	}
	in, err := w.replay()
	if err != nil || in == nil {
		return nil, err
	}
	inW := len(in.Cols)
	out := &vector.Batch{Cols: append(in.Cols[:inW:inW], make([]*vector.Vector, len(w.Fns))...), N: in.N}
	for gi, feed := range w.resFeeds {
		fnIdx := w.groups[gi].fnIdx
		dst := make([]*vector.Vector, len(fnIdx))
		for i, fi := range fnIdx {
			dst[i] = vector.New(w.Out[inW+fi], 0)
			out.Cols[inW+fi] = dst[i]
		}
		// Column 0 of a result row is its seq; the functions follow.
		if err := feed.appendNext(dst, 1, in.N); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Close implements Operator: tears down the external pipelines (their
// Close removes the sort runs they spilled), then the input store (chunk
// files removed, reservation returned).
func (w *WindowOp) Close() error {
	for _, p := range w.pipes {
		p.Close()
	}
	w.store.close()
	w.out, w.pipes = batchViews{}, nil
	w.replay, w.resFeeds = nil, nil
	return w.Input.Close()
}

// Child implements Node.
func (w *WindowOp) Child(i int) *Operator { return oneChild(i, &w.Input) }

// Describe implements Node.
func (w *WindowOp) Describe(b *strings.Builder) {
	b.WriteString("Window ")
	b.WriteString(explainWindow(w))
}

// Stage implements Node.
func (w *WindowOp) Stage() Stage { return StageVertex | StageBreaker }

// Delivers implements the property fact: rows emit in arrival order with
// appended function columns.
func (w *WindowOp) Delivers() plan.Properties { return orderOf(w.Input) }

// windowReplayOp streams the operator's row store — spilled chunks then the
// resident rows — in arrival order, with the arrival ordinal appended as a
// trailing bigint column: the external sort's tie-break and the result
// rows' join-back key.
type windowReplayOp struct {
	w    *WindowOp
	pull func() (*vector.Batch, error)
	seq  int64
}

// Types implements Operator.
func (r *windowReplayOp) Types() []types.T {
	return append(append([]types.T{}, r.w.Input.Types()...), types.TBigint)
}

// Open implements Operator.
func (r *windowReplayOp) Open() error {
	r.seq = 0
	r.pull = r.w.store.replay()
	return nil
}

// Next implements Operator.
func (r *windowReplayOp) Next() (*vector.Batch, error) {
	b, err := r.pull()
	if err != nil || b == nil {
		return nil, err
	}
	seqs := vector.New(types.TBigint, b.N)
	for i := range seqs.I64 {
		seqs.I64[i] = r.seq
		r.seq++
	}
	return &vector.Batch{Cols: append(b.Cols[:len(b.Cols):len(b.Cols)], seqs), N: b.N}, nil
}

// Close implements Operator. The replayed store belongs to the WindowOp;
// nothing to release here.
func (r *windowReplayOp) Close() error { return nil }

// appendSpan appends live rows lo..hi-1 of b onto dst, column first+k of the
// batch onto dst[k].
func appendSpan(dst []*vector.Vector, b *vector.Batch, first, lo, hi int) {
	for k, d := range dst {
		if src := b.Cols[first+k]; b.Sel != nil {
			d.AppendRows(src, b.Sel[lo:hi], hi-lo)
		} else {
			d.AppendRows(src.Slice(lo, hi), nil, hi-lo)
		}
	}
}

// windowEvalOp consumes a (partition, order, seq)-sorted stream and emits
// one result row (seq, fn values…) per input row, holding exactly one
// partition resident at a time: it copies the partition's rows out of the
// stream as column runs and hands them to the same windowEval the resident
// pass uses. The partition working set is force-taken from the governor —
// the single-partition residency is the external plan's minimum, the same
// Grace assumption the agg and join drains make.
//
//lint:ignore operator-node built inside WindowOp's external pass at run time; never part of a planned tree
type windowEvalOp struct {
	Input  Operator
	g      *windowGroup
	fns    []plan.WindowFn
	seqCol int
	ctx    *Context

	res  *Reservation
	ts   []types.T
	same []plan.SortKey // the partition columns, as keys

	in    *vector.Batch // the stream's current batch
	inPos int           // its first row not yet taken
	eof   bool

	part  []*vector.Vector // the resident partition's input columns
	partN int
	out   batchViews // its result rows, in partition order
}

// Types implements Operator.
func (e *windowEvalOp) Types() []types.T {
	if e.ts == nil {
		e.ts = make([]types.T, 0, 1+len(e.g.fnIdx))
		e.ts = append(e.ts, types.TBigint)
		for _, fi := range e.g.fnIdx {
			e.ts = append(e.ts, e.fns[fi].T)
		}
	}
	return e.ts
}

// Open implements Operator.
func (e *windowEvalOp) Open() error {
	e.res = e.ctx.Governor().Reserve("window")
	e.same = partitionKeys(e.g.partitionBy)
	e.in, e.inPos, e.eof = nil, 0, false
	e.part, e.partN, e.out = nil, 0, batchViews{}
	return e.Input.Open()
}

// gather copies the stream's next partition into e.part: the run of rows
// that equal the partition's first row on the partition columns, across as
// many batches as it spans.
func (e *windowEvalOp) gather() error {
	inTypes := e.Input.Types()
	e.part, e.partN = make([]*vector.Vector, len(inTypes)), 0
	for c, t := range inTypes {
		e.part[c] = vector.New(t, 0)
	}
	for !e.eof {
		if e.in == nil || e.inPos >= e.in.N {
			if err := e.ctx.CheckCanceled(); err != nil {
				return err
			}
			b, err := e.Input.Next()
			if err != nil {
				return err
			}
			e.in, e.inPos, e.eof = b, 0, b == nil
			continue
		}
		lo, hi := e.inPos, e.inPos
		if e.partN == 0 {
			hi++ // the partition's first row; the rest compare against it
			appendSpan(e.part, e.in, 0, lo, hi)
			lo = hi
		}
		for hi < e.in.N && e.inPartition(e.in.RowIdx(hi)) {
			hi++
		}
		appendSpan(e.part, e.in, 0, lo, hi)
		e.partN += hi - e.inPos
		e.inPos = hi
		if hi < e.in.N {
			break // the next partition starts inside this batch
		}
	}
	var sz int64
	for _, col := range e.part {
		sz += col.CapBytes()
	}
	e.res.ForceGrow(sz)
	return nil
}

// inPartition reports whether physical row r of the current batch belongs
// to the resident partition.
func (e *windowEvalOp) inPartition(r int) bool {
	for _, k := range e.same {
		if e.part[k.Col].CompareRow(0, e.in.Cols[k.Col], r, false, false) != 0 {
			return false
		}
	}
	return true
}

// Next implements Operator.
func (e *windowEvalOp) Next() (*vector.Batch, error) {
	for {
		if b := e.out.next(); b != nil {
			return b, nil
		}
		e.out, e.part = batchViews{}, nil
		e.res.Release()
		if err := e.gather(); err != nil {
			return nil, err
		}
		if e.partN == 0 {
			return nil, nil
		}
		res := vector.NewBatch(e.Types()[1:], e.partN)
		ev, err := newWindowEval(e.g, e.fns, e.part, e.partN, res.Cols)
		if err != nil {
			return nil, err
		}
		held := ev.argBytes
		for _, col := range res.Cols {
			held += col.CapBytes()
		}
		e.res.ForceGrow(held)
		ev.partition(identityIndex(e.partN))
		e.out.b = &vector.Batch{Cols: append([]*vector.Vector{e.part[e.seqCol]}, res.Cols...), N: e.partN}
	}
}

// Close implements Operator.
func (e *windowEvalOp) Close() error {
	e.in, e.part, e.out = nil, nil, batchViews{}
	e.res.Release()
	return e.Input.Close()
}

// batchFeed pulls an operator's stream in caller-sized steps across its
// batch boundaries — the lockstep cursor the external window emission zips
// result streams with.
type batchFeed struct {
	op     Operator
	ctx    *Context
	b      *vector.Batch
	i      int
	primed bool
}

// prime pulls the first batch, forcing any upstream materialization (sort
// consume, partition evaluation) to happen now.
func (f *batchFeed) prime() error {
	b, err := f.op.Next()
	if err != nil {
		return err
	}
	f.b, f.i, f.primed = b, 0, true
	return nil
}

// appendNext appends the stream's next n rows onto dst, stream column
// first+k onto dst[k]; a stream that ends short is an error.
func (f *batchFeed) appendNext(dst []*vector.Vector, first, n int) error {
	for n > 0 {
		if f.b != nil && f.i < f.b.N {
			hi := min(f.i+n, f.b.N)
			appendSpan(dst, f.b, first, f.i, hi)
			n -= hi - f.i
			f.i = hi
			continue
		}
		if f.primed && f.b == nil {
			return fmt.Errorf("exec: window result stream ended early")
		}
		if err := f.ctx.CheckCanceled(); err != nil {
			return err
		}
		b, err := f.op.Next()
		if err != nil {
			return err
		}
		f.b, f.i, f.primed = b, 0, true
	}
	return nil
}
