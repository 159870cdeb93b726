// Morsel-driven parallel execution (paper §3, §5): query fragments run on
// multiple LLAP executor slots at once. A ParallelOp fans a cloned operator
// pipeline out across worker goroutines that steal table splits from a
// shared queue (the morsel-driven scheduling of Leis et al. that LLAP
// executors embody) and merges result batches through a bounded channel.
// Hash aggregation runs in two phases — thread-local partial aggregates
// merged into a final table, the paper's map-side aggregation — and hash
// join builds are partitioned across workers (join.go).
package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/acid"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// exchange is the worker lifecycle every parallel exchange operator
// shares: executor-slot acquisition, the first-error latch, cooperative
// shutdown of worker goroutines and slot return. ParallelOp and MergeOp
// embed it so slot accounting and shutdown ordering exist exactly once;
// only where batches go (one shared channel vs one ordered channel per
// run) differs between them.
type exchange struct {
	started bool
	done    chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup
	errMu   sync.Mutex
	err     error
	release func()
	ctx     *Context
}

// reset clears launch state for the Open-after-Close contract.
func (e *exchange) reset() {
	e.started = false
	e.done = nil
	e.stop = sync.Once{}
	e.err = nil
	e.release = nil
}

// grantWorkers borrows executor slots for up to want workers and returns
// how many may run plus the slot release. The coordinator always owns one
// implicit slot, so at least one worker runs even when the pool is
// exhausted; extra workers are granted without blocking. Every parallel
// operator — streaming exchange or two-phase — sizes itself here.
func grantWorkers(ctx *Context, want int) (int, func()) {
	extra, release := want-1, func() {}
	if ctx != nil {
		extra, release = ctx.AcquireExtra(want - 1)
	}
	n := 1 + extra
	if n > want {
		n = want
	}
	return n, release
}

// begin marks the exchange started and borrows slots for up to want
// workers, returning how many may run.
func (e *exchange) begin(ctx *Context, want int) int {
	e.started = true
	e.ctx = ctx
	e.done = make(chan struct{})
	n, release := grantWorkers(ctx, want)
	e.release = release
	return n
}

func (e *exchange) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.stop.Do(func() { close(e.done) })
}

func (e *exchange) firstErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// shutdown unwinds the worker goroutines — done unblocks any send — waits
// for them, and returns the borrowed slots. Idempotent; a no-op before the
// first Next.
func (e *exchange) shutdown() {
	if !e.started {
		return
	}
	e.stop.Do(func() { close(e.done) })
	e.wg.Wait()
	if e.release != nil {
		e.release()
	}
}

// drainWorker runs one worker pipeline: open, pull batches, hand each to
// send until EOF, error or shutdown (send reports false when the exchange
// is closing). Callers run it on a goroutine they registered with wg.
func (e *exchange) drainWorker(w Operator, send func(*vector.Batch) bool) {
	if err := w.Open(); err != nil {
		e.fail(err)
		return
	}
	for {
		select {
		case <-e.done:
			return
		default:
		}
		if err := e.ctx.CheckCanceled(); err != nil {
			e.fail(err)
			return
		}
		b, err := w.Next()
		if err != nil {
			e.fail(err)
			return
		}
		if b == nil {
			return
		}
		if !send(b) {
			return
		}
	}
}

// closeWorkers tears down every worker pipeline.
func closeWorkers(workers []Operator) error {
	var first error
	for _, w := range workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ParallelOp is the generic exchange operator: it runs N worker pipelines
// (clones of one subtree sharing a morsel queue and build tables) on their
// own goroutines and merges their output batches through a bounded channel.
// Batch order across workers is nondeterministic, as in any parallel
// shuffle-less exchange.
type ParallelOp struct {
	Workers []Operator
	Ctx     *Context

	exchange
	out chan *vector.Batch
}

// Types implements Operator.
func (p *ParallelOp) Types() []types.T { return p.Workers[0].Types() }

// Open implements Operator. Workers are opened on their own goroutines at
// the first Next, so that upstream build sides (runtime filters, join
// hash tables) run before any worker can block on them.
func (p *ParallelOp) Open() error {
	p.reset()
	p.out = nil
	return nil
}

// start acquires executor slots and launches the workers.
func (p *ParallelOp) start() {
	n := p.begin(p.Ctx, len(p.Workers))
	p.out = make(chan *vector.Batch, 2*n)
	for w := 0; w < n; w++ {
		p.wg.Add(1)
		go func(wk Operator) {
			defer p.wg.Done()
			p.drainWorker(wk, p.send)
		}(p.Workers[w])
	}
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
}

func (p *ParallelOp) send(b *vector.Batch) bool {
	select {
	case p.out <- b:
		return true
	case <-p.done:
		return false
	}
}

// Next implements Operator: it merges worker batches in arrival order.
func (p *ParallelOp) Next() (*vector.Batch, error) {
	if !p.started {
		p.start()
	}
	if b, ok := <-p.out; ok {
		return b, nil
	}
	return nil, p.firstErr()
}

// Close implements Operator.
func (p *ParallelOp) Close() error {
	p.shutdown()
	return closeWorkers(p.Workers)
}

// Child implements Node.
func (p *ParallelOp) Child(i int) *Operator { return nthChild(i, p.Workers) }

// Describe implements Node.
func (p *ParallelOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "Exchange workers=%d", len(p.Workers))
}

// Stage implements Node.
func (p *ParallelOp) Stage() Stage { return StagePlaced }

// ParallelHashAggOp is the two-phase parallel aggregation: each worker
// pipeline feeds a thread-local partial aggregation (the paper's map-side
// aggregation), and the partials merge into one final group table before
// emission. Merging states — not results — keeps AVG, DISTINCT and
// decimal-scale handling exact. Both phases are memory-governed: worker
// partials spill hash-partitioned group files against the shared budget,
// and the coordinator's merge table spills the same way when the combined
// group set does not fit (aggspill.go).
type ParallelHashAggOp struct {
	Workers      []Operator
	GroupExprs   []*CompiledExpr
	Aggs         []CompiledAgg
	GroupingSets [][]int
	Out          []types.T
	Ctx          *Context

	// Disjoint marks partition-wise placement (props.go): the group keys
	// cover the base scan's partition columns and splits are whole
	// directories, so no two workers ever hold partials of the same group
	// — the final merge appends without hash lookups.
	Disjoint bool

	sink   *spillAggTable
	locals []*HashAggOp
	done   bool

	// spilledMode drives the partition-aligned drain: when any worker
	// partial spilled, the final merge processes one hash partition of
	// every partial at a time instead of folding whole partials into one
	// coordinator table (which would just re-spill what the workers
	// already wrote).
	spilledMode bool
	partIdx     int
	partTable   *groupTable
	partEmit    int
}

// Types implements Operator.
func (a *ParallelHashAggOp) Types() []types.T { return a.Out }

// Open implements Operator. Worker pipelines open on their goroutines.
func (a *ParallelHashAggOp) Open() error {
	a.sink = newSpillAggTable(a.Ctx, a.Aggs, len(a.GroupExprs))
	a.locals = nil
	a.done, a.spilledMode = false, false
	a.partIdx, a.partTable, a.partEmit = 0, nil, 0
	return nil
}

// runPhased is the first phase of the two-phase operators (thread-local
// partials, then a merge): it runs fn(w) for each of up to want workers on
// its own goroutine — capped by the slots AcquireExtra grants — and
// returns the first error. Workers beyond the cap never run; they hold no
// state, since every pipeline steals from the shared morsel queue.
func runPhased(ctx *Context, want int, fn func(w int) error) error {
	n, release := grantWorkers(ctx, want)
	defer release()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes the first phase (parallel partial aggregation) and, when
// nothing spilled, the in-memory merge (worker 0's groups first) into the
// final table. When any partial spilled, the merge is deferred to the
// partition-aligned drain: every sink partitions by the same group hash,
// so partition p of all partials merges — and emits — as one bounded unit,
// and the coordinator never re-spills rows the workers already wrote.
func (a *ParallelHashAggOp) run() error {
	a.locals = make([]*HashAggOp, len(a.Workers))
	err := runPhased(a.Ctx, len(a.Workers), func(w int) error {
		local := &HashAggOp{
			Input: a.Workers[w], GroupExprs: a.GroupExprs, Aggs: a.Aggs,
			GroupingSets: a.GroupingSets, Out: a.Out, Ctx: a.Ctx,
		}
		if err := local.Open(); err != nil {
			return err
		}
		if err := local.consume(); err != nil {
			return err
		}
		a.locals[w] = local
		return nil
	})
	if err != nil {
		return err // Close drops any spilled partials
	}
	for _, local := range a.locals {
		if local != nil && local.sink.spilled {
			a.spilledMode = true
		}
	}
	if a.spilledMode {
		// Seal every partial: spilled ones flush their remainders so each
		// partition is entirely on disk; resident ones are filtered by
		// hash at drain time — and hand their accounting back now, since
		// the drain re-accounts each group as its partition loads (holding
		// both would charge the shared budget twice for the same bytes).
		for _, local := range a.locals {
			if local == nil {
				continue
			}
			if local.sink.spilled {
				if err := local.sink.finish(); err != nil {
					return err
				}
			} else {
				local.sink.releaseResident()
			}
		}
		return nil
	}
	// In-memory merge. Ownership of the partials' groups transfers to the
	// final sink, which re-accounts each group as it merges; releasing the
	// partials' reservations first keeps the shared budget from being
	// pinned by both sides of the handoff at once.
	for _, local := range a.locals {
		if local != nil {
			local.sink.releaseResident()
		}
	}
	merge := a.sink.mergeGroup
	if a.Disjoint {
		merge = a.sink.appendGroup
	}
	for _, local := range a.locals {
		if local == nil {
			continue // worker beyond the granted slot cap: never ran
		}
		if err := local.sink.drainGroups(merge); err != nil {
			return err
		}
	}
	// A parallel global aggregate over zero workers' rows still emits one
	// row: every local already contributed its empty group, merged above.
	if len(a.GroupExprs) == 0 && a.sink.groupCount() == 0 {
		a.sink.addEmpty()
	}
	return a.sink.finish()
}

// nextPartitionBatch is the spilled-mode drain: merge partition partIdx
// across every partial, emit it, free it, move on. One partition of the
// final group set is resident at a time.
func (a *ParallelHashAggOp) nextPartitionBatch() (*vector.Batch, error) {
	for {
		if a.partTable != nil {
			if b := a.partTable.emitBatch(a.partEmit, a.Out, a.Aggs, a.GroupingSets); b != nil {
				a.partEmit += b.N
				return b, nil
			}
			a.partTable, a.partEmit = nil, 0
			a.sink.res.Release()
			a.partIdx++
		}
		if a.partIdx >= aggSpillParts {
			return nil, nil
		}
		t := newGroupTable()
		for _, local := range a.locals {
			if local == nil {
				continue
			}
			err := local.sink.partitionGroups(a.partIdx, func(g *aggGroup) error {
				if t.mergeInto(g, a.Aggs) {
					a.sink.res.ForceGrow(groupBytes(g))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		a.partTable = t
	}
}

// Next implements Operator.
func (a *ParallelHashAggOp) Next() (*vector.Batch, error) {
	if !a.done {
		if err := a.run(); err != nil {
			return nil, err
		}
		a.done = true
	}
	var b *vector.Batch
	var err error
	if a.spilledMode {
		b, err = a.nextPartitionBatch()
	} else {
		b, err = a.sink.nextBatch(a.Out, a.GroupingSets)
	}
	if err != nil || b == nil {
		return nil, err
	}
	return b, nil
}

// Close implements Operator.
func (a *ParallelHashAggOp) Close() error {
	for _, local := range a.locals {
		if local != nil {
			local.sink.close()
		}
	}
	a.locals, a.partTable = nil, nil
	a.sink.close()
	a.sink = nil
	return closeWorkers(a.Workers)
}

// Child implements Node.
func (a *ParallelHashAggOp) Child(i int) *Operator { return nthChild(i, a.Workers) }

// Describe implements Node.
func (a *ParallelHashAggOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "ParallelHashAgg workers=%d groups=%d", len(a.Workers), len(a.GroupExprs))
	if a.Disjoint {
		b.WriteString(" partition-wise")
	}
}

// Stage implements Node.
func (a *ParallelHashAggOp) Stage() Stage { return StagePlaced }

// Delivers implements the property fact.
func (a *ParallelHashAggOp) Delivers() plan.Properties {
	return groupsUnique(a.GroupExprs, a.GroupingSets)
}

// Parallelize rewrites a physical operator tree for intra-query parallelism
// at degree dop: scans fan out over shared morsel queues, aggregations
// become two-phase, sorts run as per-worker runs under an order-preserving
// merge, and hash joins share a partitioned build table across
// probe-pipeline clones. Serial semantics are preserved exactly; only the
// order of result rows (for queries without ORDER BY) may change. The
// second result reports whether any parallel operator was inserted — a
// false means the tree came back unchanged (e.g. single-split scans only).
func Parallelize(op Operator, ctx *Context, dop int) (Operator, bool) {
	if dop <= 1 {
		return op, false
	}
	p := &parallelizer{ctx: ctx, dop: dop}
	op = p.rec(op)
	return op, p.changed
}

type parallelizer struct {
	ctx     *Context
	dop     int
	changed bool
}

// rec chooses a placement for op by kind; where none applies op stays
// serial and its inputs are placed instead.
func (p *parallelizer) rec(op Operator) Operator {
	switch x := op.(type) {
	case *HashAggOp:
		// Partition-wise aggregation (props.go): when the group keys cover
		// the base scan's partition columns, worker partials are
		// key-disjoint. Stripe expansion is suppressed — directory
		// integrity IS the disjointness — and the final merge appends.
		if p.aggPartitionWise(x) {
			if workers, ok := p.cloneWorkersExpand(x.Input, false); ok {
				p.changed = true
				return &ParallelHashAggOp{
					Workers: workers, GroupExprs: x.GroupExprs, Aggs: x.Aggs,
					Out: x.Out, Ctx: p.ctx, Disjoint: true,
				}
			}
		}
		if workers, ok := p.cloneWorkers(x.Input); ok {
			p.changed = true
			return &ParallelHashAggOp{
				Workers: workers, GroupExprs: x.GroupExprs, Aggs: x.Aggs,
				GroupingSets: x.GroupingSets, Out: x.Out, Ctx: p.ctx,
			}
		}
	case *ScanOp, *FilterOp, *ProjectOp, *HashJoinOp:
		// Partition-wise join (partjoin.go): co-partitioned sides join as
		// independent units with no shared build and no exchange. It goes
		// before the generic shared-build clone.
		if pj, ok := p.partitionJoin(op); ok {
			p.changed = true
			return pj
		}
		if workers, ok := p.cloneWorkers(op); ok {
			p.changed = true
			return &ParallelOp{Workers: workers, Ctx: p.ctx}
		}
	case *SortOp:
		// Parallel ORDER BY: the sort moves below the exchange — every
		// worker sorts its share of the morsel stream into a local run,
		// and the order-preserving MergeOp streams the runs through a
		// loser-tree k-way merge on the coordinator.
		if workers, ok := p.cloneWorkers(x.Input); ok {
			p.changed = true
			runs := make([]Operator, len(workers))
			for i, w := range workers {
				runs[i] = &SortOp{Input: w, Keys: x.Keys, Ctx: p.ctx}
			}
			return &MergeOp{Workers: runs, Keys: x.Keys, Ctx: p.ctx}
		}
	case *TopNOp:
		// Parallel TopN: the LIMIT pushes into every worker's run as a
		// thread-local bounded heap; survivors merge into one final heap.
		if x.N > 0 {
			if workers, ok := p.cloneWorkers(x.Input); ok {
				p.changed = true
				return &ParallelTopNOp{Workers: workers, Keys: x.Keys, N: x.N, Offset: x.Offset, Ctx: p.ctx}
			}
		}
	case *LimitOp:
		// An unfused LIMIT directly over a sort (trees built outside the
		// compiler's TopN fusion) is still a TopN: push the limit into
		// per-worker runs rather than serializing the sort.
		if s, ok := x.Input.(*SortOp); ok && x.N > 0 {
			if workers, ok := p.cloneWorkers(s.Input); ok {
				p.changed = true
				return &ParallelTopNOp{Workers: workers, Keys: s.Keys, N: x.N, Offset: x.Offset, Ctx: p.ctx}
			}
		}
	}
	RewriteInputs(op, p.rec)
	return op
}

// aggPartitionWise reports whether the aggregation's group keys cover
// every partition column of the pipeline's base scan while its splits are
// whole directories (what the scan's delivered partitioning says): each
// directory is one distinct partition-value combination owned by exactly
// one worker, so rows agreeing on the group keys — hence on all partition
// values — aggregate on the same worker and the partials are key-disjoint.
// Grouping sets break the argument (a masked-out partition column merges
// across units).
func (p *parallelizer) aggPartitionWise(x *HashAggOp) bool {
	if !p.ctx.propsOn() || x.GroupingSets != nil {
		return false
	}
	part := DeliveredProps(x.Input).Partitioning
	for _, c := range part {
		grouped := slices.ContainsFunc(x.GroupExprs, func(e *CompiledExpr) bool {
			ref, ok := e.ColRef()
			return ok && ref == c
		})
		if !grouped {
			return false
		}
	}
	return len(part) > 0
}

// spoolMorsels is the morsel count assumed for a spooled source: its row
// count is unknown until runtime materialization, so admission assumes
// enough batches to keep every worker busy and lets the shared cursor
// starve surplus workers naturally when the spool turns out small.
const spoolMorsels = 1 << 20

// cloneWorkers turns a morsel pipeline — a chain of stateless per-batch
// operators (node.go, fact 5) over a table scan or a published spool — into
// worker pipelines that share one morsel queue (and, for joins, one build
// table). Spools qualify because materialization is single-flight and the
// published content is immutable, so clones can split it through a shared
// cursor. The worker count is the requested DOP capped by the morsel count
// (extra workers would never receive a split) and the executor pool size
// (extra workers would never receive a slot). The original operators are
// mutated to carry the shared state and then templated.
func (p *parallelizer) cloneWorkers(op Operator) ([]Operator, bool) {
	return p.cloneWorkersExpand(op, true)
}

// cloneWorkersExpand is cloneWorkers with stripe expansion controllable:
// partition-wise placements keep directory splits whole because split
// value-disjointness is what makes their merge an append.
func (p *parallelizer) cloneWorkersExpand(op Operator, expand bool) ([]Operator, bool) {
	src := pipelineSource(op)
	scan, _ := src.(*ScanOp)
	spool, _ := src.(*SpoolOp)
	morsels := spoolMorsels
	if scan != nil {
		// Refine coarse directory splits into stripe-granular morsels
		// (paper §5.1) before the morsel count caps the worker fan-out:
		// without this an unpartitioned table is a single whole-directory
		// morsel and scans serially no matter the DOP.
		if expand {
			p.expandScanSplits(scan)
		}
		morsels = len(scan.Splits)
	} else if spool == nil {
		return nil, false
	}
	n := min(p.dop, morsels)
	if p.ctx != nil && p.ctx.Slots != nil {
		n = min(n, p.ctx.Slots.Executors()+1) // +1: the coordinator's implicit slot
	}
	if n < 2 {
		return nil, false
	}
	// Attach the cross-worker state to the template: every join on the
	// chain gets a shared build (whose own input subtree is parallelized
	// recursively), then the source its split queue or consumption cursor.
	for o := op; o != src; o = streamedInput(o) {
		if j, ok := o.(*HashJoinOp); ok && j.Shared == nil {
			j.Types() // resolve output schema while Right is still attached
			j.Shared = &sharedBuild{right: p.rec(j.Right)}
			j.Right = nil
		}
	}
	var source func(Operator) Operator
	if scan != nil {
		if scan.Shared == nil {
			scan.Shared = NewSplitQueue(scan.Splits)
			scan.Splits = nil
		}
		source = func(Operator) Operator { return scan.clone() }
	} else {
		if spool.Cursor == nil {
			spool.Types() // resolve the schema while single-threaded
			spool.Cursor = &spoolCursor{}
			spool.Input = p.rec(spool.Input)
		}
		// Clones share the input operator (only the single-flight
		// materialization winner ever runs it) and the consumption cursor.
		source = func(Operator) Operator {
			return &SpoolOp{ID: spool.ID, Input: spool.Input, Ctx: spool.Ctx, Cursor: spool.Cursor, ts: spool.ts}
		}
	}
	workers := make([]Operator, n)
	for w := range workers {
		workers[w] = clonePipeline(op, source)
	}
	return workers, true
}

// expandScanSplits replaces the scan's directory splits with stripe ranges
// enumerated once, here on the coordinator, through one shared snapshot
// per directory (its delete set loads once and is read-only afterwards,
// so every worker reuses it). Expansion runs only when the directory
// morsels cannot keep the workers busy — partitioned tables with plenty of
// partitions keep their coarse splits and skip the footer reads — and
// never when dynamic partition pruning is bound: pruning runs at first
// take, after the build side publishes its filter, and enumerating
// partitions it would discard wastes snapshot opens and footer reads.
// Any enumeration failure falls back to the unexpanded split: stripe
// morsels are an optimization, never a correctness requirement.
func (p *parallelizer) expandScanSplits(s *ScanOp) {
	if s.Shared != nil || len(s.Splits) == 0 || len(s.Prune) > 0 {
		return
	}
	if len(s.Splits) >= 2*p.dop {
		// Plenty of directory morsels — but a skewed partitioned table can
		// still hide most of its rows in a few of them. Cost-based pass:
		// probe row estimates and refine only the oversized directories.
		p.expandSkewedSplits(s)
		return
	}
	target := 0
	if p.ctx != nil {
		target = p.ctx.TargetStripes
	}
	out := make([]TableSplit, 0, len(s.Splits))
	for _, sp := range s.Splits {
		if sp.File != "" {
			out = append(out, sp)
			continue
		}
		snap, err := acid.OpenSnapshotWith(s.FS, sp.Loc, s.dataColumns(), sp.Valid, s.Ctx.snapOpts())
		if err != nil {
			out = append(out, sp)
			continue
		}
		ranges, err := snap.Splits(target)
		if err != nil || len(ranges) == 0 {
			// Enumeration failed but the snapshot is open with its delete
			// set loaded; carry it so the scan does not reopen the
			// directory and reload every delete delta at execution time.
			sp.Snap = snap
			out = append(out, sp)
			continue
		}
		for _, rg := range ranges {
			out = append(out, TableSplit{
				Loc: sp.Loc, PartValues: sp.PartValues, Valid: sp.Valid,
				File: rg.File, StripeLo: rg.StripeLo, StripeHi: rg.StripeHi,
				Snap: snap,
			})
		}
	}
	s.Splits = out
}

// maxSkewProbe bounds the snapshot opens the skew pass will pay for; a
// table with more directories than this amortizes its skew across enough
// morsels that stealing already balances it.
const maxSkewProbe = 256

// expandSkewedSplits is the cost-based arm of stripe expansion: directory
// morsels outnumber the workers, but a morsel is the unit of stealing, so
// one directory holding a multiple of its fair share serializes the tail
// on whichever worker drew it. Enumerate stripe ranges (row counts come
// from the ORC footers the snapshot already reads), then refine only the
// directories holding more than twice the mean; everything else keeps its
// coarse split, carrying the opened snapshot so the scan does not reload
// delete deltas.
func (p *parallelizer) expandSkewedSplits(s *ScanOp) {
	if len(s.Splits) > maxSkewProbe {
		return
	}
	target := 0
	if p.ctx != nil {
		target = p.ctx.TargetStripes
	}
	type probe struct {
		ranges []acid.ScanRange
		rows   int64
	}
	probes := make([]*probe, len(s.Splits))
	var total int64
	dirs := 0
	for i, sp := range s.Splits {
		if sp.File != "" || sp.Snap != nil {
			continue
		}
		snap, err := acid.OpenSnapshotWith(s.FS, sp.Loc, s.dataColumns(), sp.Valid, s.Ctx.snapOpts())
		if err != nil {
			continue
		}
		s.Splits[i].Snap = snap // reuse at execution either way
		ranges, err := snap.Splits(target)
		if err != nil || len(ranges) == 0 {
			continue
		}
		pr := &probe{ranges: ranges}
		for _, rg := range ranges {
			pr.rows += rg.Rows
		}
		probes[i] = pr
		total += pr.rows
		dirs++
	}
	if dirs == 0 || total == 0 {
		return
	}
	mean := total / int64(dirs)
	out := make([]TableSplit, 0, len(s.Splits))
	for i, sp := range s.Splits {
		pr := probes[i]
		if pr == nil || len(pr.ranges) < 2 || pr.rows <= 2*mean {
			out = append(out, sp)
			continue
		}
		for _, rg := range pr.ranges {
			out = append(out, TableSplit{
				Loc: sp.Loc, PartValues: sp.PartValues, Valid: sp.Valid,
				File: rg.File, StripeLo: rg.StripeLo, StripeHi: rg.StripeHi,
				Snap: sp.Snap,
			})
		}
	}
	s.Splits = out
}
