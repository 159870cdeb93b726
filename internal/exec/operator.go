// Package exec implements the vectorized physical operators (paper §2, §5):
// scans over ACID snapshots with sargable predicate and Bloom pushdown,
// filters and projections evaluated column-at-a-time over vector batches,
// hash joins (including the semi/anti joins produced by subquery
// decorrelation and the Single join guarding scalar subqueries), hash
// aggregation with grouping sets, sort, limit, set operations and window
// functions.
package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/acid"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// Operator is a pull-based vectorized operator. Next returns nil at end of
// stream.
type Operator interface {
	Types() []types.T
	Open() error
	Next() (*vector.Batch, error)
	Close() error
}

// SlotPool grants executor slots to parallel operators without blocking.
// *llap.Daemons satisfies it; a nil pool means parallelism is unbounded.
type SlotPool interface {
	TryAcquire(n int) (release func(), ok bool)
	Executors() int
}

// Context carries per-query execution state.
type Context struct {
	// Chunks, when non-nil, routes ORC reads through the LLAP cache.
	Chunks orc.ChunkReader
	// Vectors, when non-nil, serves and publishes decoded column vectors
	// (the I/O elevator's decoded-data cache, hive.llap.elevator).
	Vectors orc.VectorCache
	// Prefetch, when non-nil, is the async decode pool scans hint their
	// upcoming sarg-surviving stripes to.
	Prefetch orc.Prefetcher
	// Readers, when non-nil, shares parsed ORC footers across queries
	// (the LLAP metadata cache).
	Readers acid.ReaderCache
	// ScanStats aggregates stripe-skip and prefetch counters across every
	// snapshot and scan worker of the query.
	ScanStats acid.ScanCounters
	// BloomFilters holds runtime semijoin reducers keyed by reducer id
	// (paper §4.6): the build side registers, scans consult.
	blooms map[int]*RuntimeFilter
	// spools holds the shared-work materializations keyed by spool id
	// (spool.go); spoolMu guards map access for parallel worker clones.
	spoolMu sync.Mutex
	spools  map[int]*sharedSpool
	// DOP is the requested degree of intra-operator parallelism
	// (hive.parallelism). 1 or 0 means serial execution.
	DOP int
	// TargetStripes bounds the stripes per morsel when the parallel
	// planner refines directory splits into stripe-granular scan ranges
	// (hive.split.target.stripes). 0 or negative means one stripe per
	// morsel.
	TargetStripes int
	// PropsPlanning enables property-driven planning
	// (hive.planner.properties): operators consult delivered physical
	// properties (props.go) to elide sorts over already-ordered input,
	// share window partition passes, and run partition-wise aggregation
	// and joins over pre-partitioned scans. NewContext enables it, the
	// server default; false restores the enforcer-everywhere plans the
	// byte-identity suites compare against.
	PropsPlanning bool
	// Slots, when non-nil, is the LLAP executor pool parallel operators
	// borrow additional workers from (paper §5.1). The coordinating
	// fragment always owns one implicit slot, so execution never blocks
	// on an exhausted pool — it just runs narrower.
	Slots SlotPool
	// Mem is the per-query memory governor (hive.query.max.memory). The
	// blocking operators reserve through it and spill to ScratchDir when a
	// reservation is denied. nil means ungoverned (unlimited, no peak
	// accounting).
	Mem *Governor
	// FS and ScratchDir locate the query's DFS scratch directory for
	// operator spills. Both unset means spilling is impossible and denied
	// reservations are force-granted instead.
	FS         *dfs.FS
	ScratchDir string
	spillSeq   atomic.Int64
	// GoCtx carries the query's cancellation signal (client disconnect,
	// session close, hive.query.timeout). Operators with long row loops
	// check it between batches; nil means never canceled.
	GoCtx context.Context
}

// CheckCanceled reports the query's cancellation as an error, nil while
// the query may keep running. Cheap enough to call once per batch.
func (c *Context) CheckCanceled() error {
	if c == nil || c.GoCtx == nil {
		return nil
	}
	if err := c.GoCtx.Err(); err != nil {
		return fmt.Errorf("exec: query canceled: %w", err)
	}
	return nil
}

// NewContext returns an empty execution context.
func NewContext() *Context {
	return &Context{blooms: make(map[int]*RuntimeFilter), PropsPlanning: true}
}

// propsOn reports whether property-driven planning is enabled. A nil
// context — operator trees built outside the HS2 path — keeps the feature
// on, matching the server default.
func (c *Context) propsOn() bool {
	return c == nil || c.PropsPlanning
}

// AcquireExtra grants up to n additional executor slots beyond the one the
// caller already owns, without blocking: if the pool cannot satisfy n it
// grants what it can (possibly zero). The returned release must be called
// when the parallel phase ends.
func (c *Context) AcquireExtra(n int) (granted int, release func()) {
	if n <= 0 {
		return 0, func() {}
	}
	if c.Slots == nil {
		return n, func() {}
	}
	if max := c.Slots.Executors(); n > max {
		n = max
	}
	for k := n; k > 0; k-- {
		if rel, ok := c.Slots.TryAcquire(k); ok {
			return k, rel
		}
	}
	return 0, func() {}
}

// RuntimeFilter is the product of a semijoin reducer build: the min/max
// range and Bloom filter of the join keys (paper §4.6), plus the exact
// value set when small enough for dynamic partition pruning.
type RuntimeFilter struct {
	ready  chan struct{}
	Min    types.Datum
	Max    types.Datum
	Bloom  *Bloom
	Values []types.Datum // nil when too many for partition pruning
}

// RegisterFilter creates the placeholder for a reducer id.
func (c *Context) RegisterFilter(id int) *RuntimeFilter {
	f := &RuntimeFilter{ready: make(chan struct{})}
	c.blooms[id] = f
	return f
}

// Filter fetches a reducer, blocking until the build side publishes it.
func (c *Context) Filter(id int) *RuntimeFilter {
	f := c.blooms[id]
	if f == nil {
		return nil
	}
	<-f.ready
	return f
}

// Publish marks the filter complete.
func (f *RuntimeFilter) Publish() { close(f.ready) }

// Bloom is a simple split Bloom filter over datum hashes for index
// semijoins.
type Bloom struct {
	bits []uint64
	k    int
}

// NewBloom sizes a filter for n values at ~10 bits per value.
func NewBloom(n int) *Bloom {
	if n < 1 {
		n = 1
	}
	words := (n*10 + 63) / 64
	return &Bloom{bits: make([]uint64, words), k: 6}
}

// Add records a hash.
func (b *Bloom) Add(h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)
	n := uint32(len(b.bits) * 64)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint32(i)*h2) % n
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

// MayContain tests a hash.
func (b *Bloom) MayContain(h uint64) bool {
	h1, h2 := uint32(h), uint32(h>>32)
	n := uint32(len(b.bits) * 64)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint32(i)*h2) % n
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// ValuesOp emits a fixed set of rows.
type ValuesOp struct {
	//lint:ignore no-row-boxing literal rows arrive boxed from the plan (INSERT ... VALUES, folded constants); they become one batch on the first Next
	Rows [][]types.Datum
	Ts   []types.T
	done bool
}

// Types implements Operator.
func (v *ValuesOp) Types() []types.T { return v.Ts }

// Open implements Operator.
func (v *ValuesOp) Open() error { v.done = false; return nil }

// Next implements Operator.
func (v *ValuesOp) Next() (*vector.Batch, error) {
	if v.done {
		return nil, nil
	}
	v.done = true
	b := vector.NewBatch(v.Ts, len(v.Rows))
	for i, row := range v.Rows {
		for c, d := range row {
			b.Cols[c].Set(i, d)
		}
	}
	b.N = len(v.Rows)
	return b, nil
}

// Close implements Operator.
func (v *ValuesOp) Close() error { return nil }

// Child implements Node.
func (v *ValuesOp) Child(int) *Operator { return nil }

// Describe implements Node.
func (v *ValuesOp) Describe(b *strings.Builder) { fmt.Fprintf(b, "Values rows=%d", len(v.Rows)) }

// Stage implements Node.
func (v *ValuesOp) Stage() Stage { return StagePipelined }

// FilterOp keeps rows matching the predicate.
type FilterOp struct {
	Input Operator
	Pred  *CompiledExpr
}

// Types implements Operator.
func (f *FilterOp) Types() []types.T { return f.Input.Types() }

// Open implements Operator.
func (f *FilterOp) Open() error { return f.Input.Open() }

// Next implements Operator.
func (f *FilterOp) Next() (*vector.Batch, error) {
	for {
		b, err := f.Input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		sel, err := EvalPredicate(f.Pred, b)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			continue
		}
		return &vector.Batch{Cols: b.Cols, Sel: sel, N: len(sel)}, nil
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.Input.Close() }

// Child implements Node.
func (f *FilterOp) Child(i int) *Operator { return oneChild(i, &f.Input) }

// Describe implements Node.
func (f *FilterOp) Describe(b *strings.Builder) { b.WriteString("Filter") }

// Stage implements Node.
func (f *FilterOp) Stage() Stage { return StagePipelined }

// Delivers implements the property fact: dropping rows preserves order and
// co-location.
func (f *FilterOp) Delivers() plan.Properties { return DeliveredProps(f.Input) }

func (f *FilterOp) streamed() Operator { return f.Input }

func (f *FilterOp) cloneOver(in Operator) Operator {
	return &FilterOp{Input: in, Pred: f.Pred}
}

// ProjectOp evaluates expressions into a new batch.
type ProjectOp struct {
	Input Operator
	Exprs []*CompiledExpr
	Out   []types.T
}

// Types implements Operator.
func (p *ProjectOp) Types() []types.T { return p.Out }

// Open implements Operator.
func (p *ProjectOp) Open() error { return p.Input.Open() }

// Next implements Operator.
func (p *ProjectOp) Next() (*vector.Batch, error) {
	b, err := p.Input.Next()
	if err != nil || b == nil {
		return nil, err
	}
	cols := make([]*vector.Vector, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(b)
		if err != nil {
			return nil, err
		}
		cols[i] = v
	}
	return &vector.Batch{Cols: cols, Sel: b.Sel, N: b.N}, nil
}

// Close implements Operator.
func (p *ProjectOp) Close() error { return p.Input.Close() }

// Child implements Node.
func (p *ProjectOp) Child(i int) *Operator { return oneChild(i, &p.Input) }

// Describe implements Node.
func (p *ProjectOp) Describe(b *strings.Builder) { b.WriteString("Project") }

// Stage implements Node.
func (p *ProjectOp) Stage() Stage { return StagePipelined }

// Delivers implements the property fact: order and partitioning survive
// through bare column references.
func (p *ProjectOp) Delivers() plan.Properties { return projectProps(p) }

func (p *ProjectOp) streamed() Operator { return p.Input }

func (p *ProjectOp) cloneOver(in Operator) Operator {
	return &ProjectOp{Input: in, Exprs: p.Exprs, Out: p.Out}
}

// LimitOp skips the first Offset rows, then stops after N more.
type LimitOp struct {
	Input   Operator
	N       int64
	Offset  int64
	seen    int64
	skipped int64
}

// Types implements Operator.
func (l *LimitOp) Types() []types.T { return l.Input.Types() }

// Open implements Operator.
func (l *LimitOp) Open() error { l.seen, l.skipped = 0, 0; return l.Input.Open() }

// Next implements Operator.
func (l *LimitOp) Next() (*vector.Batch, error) {
	for {
		if l.seen >= l.N {
			return nil, nil
		}
		b, err := l.Input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		// Drop whole batches inside the offset, slice the straddling one.
		if skip := l.Offset - l.skipped; skip > 0 {
			if int64(b.N) <= skip {
				l.skipped += int64(b.N)
				continue
			}
			l.skipped = l.Offset
			if b.Sel == nil {
				sel := make([]int, int64(b.N)-skip)
				for i := range sel {
					sel[i] = int(skip) + i
				}
				b = &vector.Batch{Cols: b.Cols, Sel: sel, N: len(sel)}
			} else {
				b = &vector.Batch{Cols: b.Cols, Sel: b.Sel[skip:], N: b.N - int(skip)}
			}
		}
		remain := l.N - l.seen
		if int64(b.N) > remain {
			if b.Sel == nil {
				sel := make([]int, remain)
				for i := range sel {
					sel[i] = i
				}
				b = &vector.Batch{Cols: b.Cols, Sel: sel, N: int(remain)}
			} else {
				b = &vector.Batch{Cols: b.Cols, Sel: b.Sel[:remain], N: int(remain)}
			}
		}
		l.seen += int64(b.N)
		return b, nil
	}
}

// Close implements Operator.
func (l *LimitOp) Close() error { return l.Input.Close() }

// Child implements Node.
func (l *LimitOp) Child(i int) *Operator { return oneChild(i, &l.Input) }

// Describe implements Node.
func (l *LimitOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "Limit n=%d offset=%d", l.N, l.Offset)
}

// Stage implements Node.
func (l *LimitOp) Stage() Stage { return StagePipelined }

// Delivers implements the property fact: a prefix keeps its input's order.
func (l *LimitOp) Delivers() plan.Properties { return orderOf(l.Input) }

// Drain pulls every batch of an operator tree and returns the rows as
// datum slices (convenience for tests and result fetching).
func Drain(op Operator) ([][]types.Datum, error) {
	return DrainContext(nil, op)
}

// DrainContext is Drain with per-batch cancellation checks against the
// context's GoCtx: a timed-out or disconnected query stops between
// batches, and the deferred Close releases operator state (governor
// reservations, spill files) on the way out.
func DrainContext(c *Context, op Operator) ([][]types.Datum, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out [][]types.Datum
	for {
		if err := c.CheckCanceled(); err != nil {
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		for i := 0; i < b.N; i++ {
			//lint:ignore no-row-boxing results leave the engine as [][]Datum; a columnar result set is ROADMAP item 5(b)'s last step
			out = append(out, b.Row(i))
		}
	}
}
