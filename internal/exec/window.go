// Window functions, memory-governed and beyond-memory capable.
//
// WindowOp groups its functions by (PARTITION BY, ORDER BY) spec and runs
// one partition/order pass per group instead of one per function. Input
// rows are accounted against the query's memory governor as they
// materialize; when a reservation is denied the accumulated rows flush to
// arrival-order chunk files on the DFS scratch directory and the compute
// pass switches to an external plan built from the same SortOp machinery
// the rest of the engine spills through:
//
//	input chunks ── sort by (partition cols, order keys, seq) ──┐
//	                one partition resident at a time: eval fns  │ per group
//	                result rows (seq, values…) sort by seq ─────┘
//	input chunks ── zip with each group's seq-ordered results ── output
//
// Both paths order partitions with the same comparator and break ties by
// arrival, so spilled output is byte-identical to the in-memory path —
// which emits rows in arrival order, the operator's contract either way.
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
	keys := make([]plan.SortKey, 0, len(g.partitionBy)+len(g.orderBy)+1)
	for _, c := range g.partitionBy {
		keys = append(keys, plan.SortKey{Col: c})
	}
	keys = append(keys, g.orderBy...)
	if seqCol >= 0 {
		keys = append(keys, plan.SortKey{Col: seqCol})
	}
	return keys
}

// samePartition reports whether two rows fall in the same partition of g.
func (g *windowGroup) samePartition(a, b []types.Datum) bool {
	for _, c := range g.partitionBy {
		x, y := a[c], b[c]
		if x.Null != y.Null {
			return false
		}
		if !x.Null && x.Compare(y) != 0 {
			return false
		}
	}
	return true
}

// evalGroupPartition computes every function of the group over one ordered
// partition, returning results[i][k] for group-local function i at
// partition position k.
//
// Ranking functions read the order keys directly. Aggregates with an ORDER
// BY accumulate peer group by peer group — rows with equal order keys form
// one frame and share one result (the RANGE-frame default); aggregates
// without an ORDER BY cover the whole partition.
func evalGroupPartition(g *windowGroup, fns []plan.WindowFn, part [][]types.Datum) ([][]types.Datum, error) {
	out := make([][]types.Datum, len(g.fnIdx))
	for i := range out {
		out[i] = make([]types.Datum, len(part))
	}
	for i, fi := range g.fnIdx {
		fn, arg, res := fns[fi], g.args[i], out[i]
		switch fn.Fn {
		case "row_number":
			for k := range part {
				res[k] = types.NewBigint(int64(k + 1))
			}
		case "rank", "dense_rank":
			rank, dense := int64(0), int64(0)
			for k := range part {
				if k == 0 || rowLess(part[k-1], part[k], fn.OrderBy) {
					rank = int64(k + 1)
					dense++
				}
				if fn.Fn == "rank" {
					res[k] = types.NewBigint(rank)
				} else {
					res[k] = types.NewBigint(dense)
				}
			}
		case "count", "sum", "avg", "min", "max":
			var st aggState
			ag := CompiledAgg{Fn: fn.Fn, T: fn.T, Arg: arg}
			update := func(k int) error {
				d := types.NewBigint(1)
				if arg != nil {
					var err error
					d, err = evalOnRow(arg, part[k])
					if err != nil {
						return err
					}
				}
				st.update(ag, d)
				return nil
			}
			if len(fn.OrderBy) == 0 {
				for k := range part {
					if err := update(k); err != nil {
						return nil, err
					}
				}
				v := st.result(ag)
				for k := range part {
					res[k] = v
				}
				continue
			}
			// Running aggregate: the partition is sorted by the order keys,
			// so peers are consecutive and a boundary is exactly a strict
			// key increase.
			for lo := 0; lo < len(part); {
				hi := lo + 1
				for hi < len(part) && !rowLess(part[hi-1], part[hi], fn.OrderBy) {
					hi++
				}
				for k := lo; k < hi; k++ {
					if err := update(k); err != nil {
						return nil, err
					}
				}
				v := st.result(ag)
				for k := lo; k < hi; k++ {
					res[k] = v
				}
				lo = hi
			}
		default:
			return nil, fmt.Errorf("exec: unsupported window function %s", fn.Fn)
		}
	}
	return out, nil
}

// rowLess orders two rows under sort keys (NULLS placement per key).
func rowLess(a, b []types.Datum, keys []plan.SortKey) bool {
	for _, k := range keys {
		if c := compareKey(k, a[k.Col], b[k.Col]); c != 0 {
			return c < 0
		}
	}
	return false
}

// mergeSortIdx stably sorts positions with the provided comparator.
func mergeSortIdx(idx []int, less func(a, b int) bool) {
	if len(idx) < 2 {
		return
	}
	tmp := make([]int, len(idx))
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
			if less(idx[j], idx[i]) {
				tmp[k] = idx[j]
				j++
			} else {
				tmp[k] = idx[i]
				i++
			}
			k++
		}
		for i < mid {
			tmp[k] = idx[i]
			i++
			k++
		}
		for j < hi {
			tmp[k] = idx[j]
			j++
			k++
		}
		copy(idx[lo:hi], tmp[lo:hi])
	}
	ms(0, len(idx))
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
	store  *rowStore // governed arrival-order input store (mem.go)
	done   bool

	// Resident emission state.
	results [][]types.Datum // per fn, parallel to store.rows
	emitted int

	// External emission state: one replay feed for the input plus one
	// seq-sorted result feed per group, zipped row by row.
	pipes    []Operator
	inFeed   *rowFeed
	resFeeds []*rowFeed
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
	w.store = newRowStore(w.Ctx, "window", "window_in")
	w.done = false
	w.results, w.emitted = nil, 0
	w.pipes, w.inFeed, w.resFeeds = nil, nil, nil
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
		if err := w.store.appendBatch(b); err != nil {
			return err
		}
	}
}

// computeResident is the in-memory pass: per group, one stable index sort
// by (partition cols, order keys) — arrival order breaks ties — then one
// evaluation per contiguous partition, scattered back by row ordinal.
func (w *WindowOp) computeResident() error {
	rows := w.store.rows
	w.results = make([][]types.Datum, len(w.Fns))
	for i := range w.results {
		w.results[i] = make([]types.Datum, len(rows))
	}
	// The result columns are resident state too: account them (observable
	// peak) without a denial path — the spill decision already happened
	// during consume.
	w.store.res.ForceGrow(int64(len(rows)) * int64(len(w.Fns)) * 48)
	var delivered []plan.SortKey
	if w.Ctx.propsOn() {
		delivered = DeliveredProps(w.Input).Ordering
	}
	wp := planWindowGroups(w.groups, delivered, w.Ctx.propsOn())
	identity := func() []int {
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	// Presorted groups: the input already delivers (partition, order), and
	// the stable sort's arrival tie-break would reproduce the delivered
	// order exactly — so the identity permutation IS the sorted one.
	for gi := range w.groups {
		if wp.presorted[gi] {
			if err := w.evalPartitions(&w.groups[gi], identity()); err != nil {
				return err
			}
		}
	}
	for _, gi := range wp.solo {
		g := &w.groups[gi]
		idx := identity()
		// No keys (e.g. count(*) OVER ()) means one partition in arrival
		// order — exactly what idx already is.
		if keys := g.sortKeys(-1); len(keys) > 0 {
			mergeSortIdx(idx, func(a, b int) bool {
				return rowLess(rows[a], rows[b], keys)
			})
		}
		if err := w.evalPartitions(g, idx); err != nil {
			return err
		}
	}
	for _, bucket := range wp.shared {
		if err := w.evalSharedPartitionPass(bucket); err != nil {
			return err
		}
	}
	return nil
}

// evalPartition evaluates group g over one partition, given as row
// ordinals in partition order, scattering results by ordinal.
func (w *WindowOp) evalPartition(g *windowGroup, sub []int) error {
	rows := w.store.rows
	part := make([][]types.Datum, len(sub))
	for k := range part {
		part[k] = rows[sub[k]]
	}
	res, err := evalGroupPartition(g, w.Fns, part)
	if err != nil {
		return err
	}
	for i, fi := range g.fnIdx {
		for k := range sub {
			w.results[fi][sub[k]] = res[i][k]
		}
	}
	return nil
}

// evalPartitions walks the contiguous partitions of an index already
// grouped by g's partition columns and evaluates each.
func (w *WindowOp) evalPartitions(g *windowGroup, idx []int) error {
	rows := w.store.rows
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		for hi < len(idx) && g.samePartition(rows[idx[lo]], rows[idx[hi]]) {
			hi++
		}
		if err := w.evalPartition(g, idx[lo:hi]); err != nil {
			return err
		}
		lo = hi
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
// (partition, order) sort would produce. Results scatter by row ordinal,
// so partition visit order never shows.
func (w *WindowOp) evalSharedPartitionPass(bucket []int) error {
	rows := w.store.rows
	rep := &w.groups[bucket[0]]
	pcols := partSetCols(rep.partitionBy)
	pkeys := make([]plan.SortKey, len(pcols))
	for i, c := range pcols {
		pkeys[i] = plan.SortKey{Col: c}
	}
	pidx := make([]int, len(rows))
	for i := range pidx {
		pidx[i] = i
	}
	mergeSortIdx(pidx, func(a, b int) bool {
		return rowLess(rows[a], rows[b], pkeys)
	})
	for lo := 0; lo < len(pidx); {
		hi := lo + 1
		for hi < len(pidx) && rep.samePartition(rows[pidx[lo]], rows[pidx[hi]]) {
			hi++
		}
		for _, gi := range bucket {
			g := &w.groups[gi]
			sub := pidx[lo:hi]
			if len(g.orderBy) > 0 {
				sub = append([]int(nil), sub...)
				mergeSortIdx(sub, func(a, b int) bool {
					return rowLess(rows[a], rows[b], g.orderBy)
				})
			}
			if err := w.evalPartition(g, sub); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
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
	w.resFeeds = make([]*rowFeed, len(w.groups))
	for gi := range w.groups {
		g := &w.groups[gi]
		srt := &SortOp{Input: w.newReplay(true), Keys: g.sortKeys(seqCol), Ctx: w.Ctx}
		ev := &windowEvalOp{Input: srt, g: g, fns: w.Fns, seqCol: seqCol, ctx: w.Ctx}
		res := &SortOp{Input: ev, Keys: []plan.SortKey{{Col: 0}}, Ctx: w.Ctx}
		if err := res.Open(); err != nil {
			return err
		}
		w.pipes = append(w.pipes, res)
		w.resFeeds[gi] = &rowFeed{op: res, ctx: w.Ctx}
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
	replay := w.newReplay(false)
	if err := replay.Open(); err != nil {
		return err
	}
	w.pipes = append(w.pipes, replay)
	w.inFeed = &rowFeed{op: replay, ctx: w.Ctx}
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
	if w.emitted >= len(w.store.rows) {
		return nil, nil
	}
	n := len(w.store.rows) - w.emitted
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	out := vector.NewBatch(w.Out, n)
	inW := len(w.Input.Types())
	for i := 0; i < n; i++ {
		row := w.store.rows[w.emitted+i]
		for c, d := range row {
			out.Cols[c].Set(i, d)
		}
		for fi := range w.Fns {
			out.Cols[inW+fi].Set(i, w.results[fi][w.emitted+i])
		}
	}
	out.N = n
	w.emitted += n
	return out, nil
}

// nextExternal zips the input replay with every group's seq-sorted result
// stream: all run in arrival order over the same row count, so position i
// of each feed describes the same row.
func (w *WindowOp) nextExternal() (*vector.Batch, error) {
	inW := len(w.Input.Types())
	out := vector.NewBatch(w.Out, vector.BatchSize)
	n := 0
	for n < vector.BatchSize {
		row, err := w.inFeed.next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		for c, d := range row {
			out.Cols[c].Set(n, d)
		}
		for gi, feed := range w.resFeeds {
			rrow, err := feed.next()
			if err != nil {
				return nil, err
			}
			if rrow == nil {
				return nil, fmt.Errorf("exec: window result stream ended early")
			}
			for i, fi := range w.groups[gi].fnIdx {
				out.Cols[inW+fi].Set(n, rrow[1+i])
			}
		}
		n++
	}
	if n == 0 {
		return nil, nil
	}
	out.N = n
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
	w.results, w.pipes = nil, nil
	w.inFeed, w.resFeeds = nil, nil
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

// newReplay streams the operator's row store — spilled chunks then the
// resident tail — in arrival order; withSeq appends the arrival ordinal as
// a trailing bigint column for the external sort's tie-break and the
// result rows' join-back key.
func (w *WindowOp) newReplay(withSeq bool) *windowReplayOp {
	return &windowReplayOp{w: w, withSeq: withSeq}
}

type windowReplayOp struct {
	w       *WindowOp
	withSeq bool
	pull    func() (*vector.Batch, error)
	seq     int64
}

// Types implements Operator.
func (r *windowReplayOp) Types() []types.T {
	ts := r.w.Input.Types()
	if !r.withSeq {
		return ts
	}
	return append(append([]types.T{}, ts...), types.TBigint)
}

// Open implements Operator.
func (r *windowReplayOp) Open() error {
	r.seq = 0
	r.pull = r.w.store.replay(r.w.Input.Types())
	return nil
}

// Next implements Operator.
func (r *windowReplayOp) Next() (*vector.Batch, error) {
	b, err := r.pull()
	if err != nil || b == nil {
		return nil, err
	}
	if !r.withSeq {
		return b, nil
	}
	seqs := vector.New(types.TBigint, b.N)
	for i := 0; i < b.N; i++ {
		seqs.Set(i, types.NewBigint(r.seq))
		r.seq++
	}
	return &vector.Batch{Cols: append(append([]*vector.Vector{}, b.Cols...), seqs), N: b.N}, nil
}

// Close implements Operator. The replayed store belongs to the WindowOp;
// nothing to release here.
func (r *windowReplayOp) Close() error { return nil }

// windowEvalOp consumes a (partition, order, seq)-sorted stream and emits
// one result row (seq, fn values…) per input row, holding exactly one
// partition resident at a time. The partition working set is force-taken
// from the governor — the single-partition residency is the external
// plan's minimum, the same Grace assumption the agg and join drains make.
//
//lint:ignore operator-node built inside WindowOp's external pass at run time; never part of a planned tree
type windowEvalOp struct {
	Input  Operator
	g      *windowGroup
	fns    []plan.WindowFn
	seqCol int
	ctx    *Context

	res    *Reservation
	feed   *rowFeed
	carry  []types.Datum
	eof    bool
	out    [][]types.Datum
	outPos int
	ts     []types.T
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
	e.feed = &rowFeed{op: e.Input, ctx: e.ctx}
	e.carry, e.eof, e.out, e.outPos = nil, false, nil, 0
	return e.Input.Open()
}

// Next implements Operator.
func (e *windowEvalOp) Next() (*vector.Batch, error) {
	for {
		if e.out != nil {
			if b := emitRows(e.out, e.outPos, e.Types()); b != nil {
				e.outPos += b.N
				return b, nil
			}
			e.out, e.outPos = nil, 0
			e.res.Release()
		}
		if e.eof && e.carry == nil {
			return nil, nil
		}
		// Gather the next partition.
		var part [][]types.Datum
		if e.carry != nil {
			part = append(part, e.carry)
			e.carry = nil
		}
		for {
			row, err := e.feed.next()
			if err != nil {
				return nil, err
			}
			if row == nil {
				e.eof = true
				break
			}
			e.res.ForceGrow(rowBytes(row))
			if len(part) > 0 && !e.g.samePartition(part[0], row) {
				e.carry = row
				break
			}
			part = append(part, row)
		}
		if len(part) == 0 {
			return nil, nil
		}
		res, err := evalGroupPartition(e.g, e.fns, part)
		if err != nil {
			return nil, err
		}
		e.out = make([][]types.Datum, len(part))
		for k := range part {
			row := make([]types.Datum, 1+len(e.g.fnIdx))
			row[0] = part[k][e.seqCol]
			for i := range e.g.fnIdx {
				row[1+i] = res[i][k]
			}
			e.out[k] = row
		}
	}
}

// Close implements Operator.
func (e *windowEvalOp) Close() error {
	e.out, e.carry, e.feed = nil, nil, nil
	e.res.Release()
	return e.Input.Close()
}

// rowFeed pulls rows one at a time across an operator's batch boundaries —
// the lockstep cursor the external window emission zips streams with.
type rowFeed struct {
	op     Operator
	ctx    *Context
	b      *vector.Batch
	i      int
	primed bool
}

// prime pulls the first batch, forcing any upstream materialization (sort
// consume, partition evaluation) to happen now.
func (f *rowFeed) prime() error {
	b, err := f.op.Next()
	if err != nil {
		return err
	}
	f.b, f.i, f.primed = b, 0, true
	return nil
}

// next returns the next row, or nil at end of stream.
func (f *rowFeed) next() ([]types.Datum, error) {
	for {
		if f.b != nil && f.i < f.b.N {
			//lint:ignore no-row-boxing window partitions evaluate over boxed rows (1760 ns/row); follow-up rides with the rowStore rewrite (ROADMAP 5b)
			row := f.b.Row(f.i)
			f.i++
			return row, nil
		}
		if f.primed && f.b == nil {
			return nil, nil
		}
		if err := f.ctx.CheckCanceled(); err != nil {
			return nil, err
		}
		b, err := f.op.Next()
		if err != nil {
			return nil, err
		}
		f.b, f.i, f.primed = b, 0, true
		if b == nil {
			return nil, nil
		}
	}
}

// evalOnRow evaluates a compiled expression against a single materialized
// row by staging it into a one-row batch.
func evalOnRow(e *CompiledExpr, row []types.Datum) (types.Datum, error) {
	ts := make([]types.T, len(row))
	for i, d := range row {
		ts[i] = types.T{Kind: d.K}
		if d.K == types.Decimal {
			ts[i] = types.TDecimal(18, d.DecimalScale())
		}
	}
	b := vector.NewBatch(ts, 1)
	for c, d := range row {
		b.Cols[c].Set(0, d)
	}
	b.N = 1
	v, err := e.Eval(b)
	if err != nil {
		return types.Datum{}, err
	}
	return v.Get(0), nil
}
