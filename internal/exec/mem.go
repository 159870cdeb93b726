// Per-query memory governance (paper §4.4, §5.2): LLAP daemons run many
// concurrent fragments in one long-lived process, which is only viable when
// each query's memory is bounded and blocking operators degrade gracefully
// instead of OOM-ing the shared daemon. A Governor is the query's atomic
// byte accountant: operators take Reservations, grow them as they
// materialize state, and a denied grow is the spill signal — the operator
// moves state to the DFS scratch directory, shrinks its reservation, and
// carries on beyond memory. Peak and spilled bytes feed workload-manager
// triggers (wm.QueryMetrics).
package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dfs"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// Governor is the per-query memory accountant shared by every operator of
// one query, across all of its worker goroutines.
type Governor struct {
	// budget is the session's hive.query.max.memory in bytes; 0 or
	// negative means unlimited (grows never deny, accounting still runs so
	// peak is observable).
	budget  int64
	used    atomic.Int64
	peak    atomic.Int64
	spilled atomic.Int64
}

// NewGovernor returns a governor enforcing budget bytes (<= 0: unlimited).
func NewGovernor(budget int64) *Governor {
	return &Governor{budget: budget}
}

// Budget returns the configured budget (0 = unlimited).
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// UsedBytes returns the bytes currently reserved.
func (g *Governor) UsedBytes() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// PeakBytes returns the high-water mark of reserved bytes.
func (g *Governor) PeakBytes() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// SpilledBytes returns the total bytes written to spill files.
func (g *Governor) SpilledBytes() int64 {
	if g == nil {
		return 0
	}
	return g.spilled.Load()
}

// NoteSpill records bytes written to a spill file.
func (g *Governor) NoteSpill(n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.spilled.Add(n)
}

func (g *Governor) bumpPeak(now int64) {
	for {
		p := g.peak.Load()
		if now <= p || g.peak.CompareAndSwap(p, now) {
			return
		}
	}
}

// Reserve opens a named per-operator reservation. Safe on a nil governor:
// the returned nil reservation grants every grow (unlimited).
func (g *Governor) Reserve(op string) *Reservation {
	if g == nil {
		return nil
	}
	return &Reservation{g: g, op: op}
}

// Reservation tracks one operator's share of the query budget. A nil
// reservation is valid and unlimited, so operators built without a Context
// (tests, embedded trees) need no special casing.
type Reservation struct {
	g    *Governor
	op   string
	held atomic.Int64
}

// Grow asks for n more bytes; false means the budget is exhausted and the
// operator should spill. The bytes are NOT held after a denial, but the
// peak still observes them: the state was resident at the moment of the
// request, and only the spill that follows evicts it.
func (r *Reservation) Grow(n int64) bool {
	if r == nil || n <= 0 {
		return true
	}
	now := r.g.used.Add(n)
	r.g.bumpPeak(now)
	if b := r.g.budget; b > 0 && now > b {
		r.g.used.Add(-n)
		return false
	}
	r.held.Add(n)
	return true
}

// ForceGrow takes n bytes unconditionally — the minimum working set an
// operator needs even on the spill path (e.g. the single row in flight, or
// one reloaded partition).
func (r *Reservation) ForceGrow(n int64) {
	if r == nil || n <= 0 {
		return
	}
	now := r.g.used.Add(n)
	r.held.Add(n)
	r.g.bumpPeak(now)
}

// Shrink returns n bytes (clamped to the held amount). The clamp is a CAS
// loop: reservations are shared across a query's worker goroutines, and a
// check-then-subtract could drive held negative under concurrent shrinks.
func (r *Reservation) Shrink(n int64) {
	if r == nil || n <= 0 {
		return
	}
	for {
		h := r.held.Load()
		take := n
		if take > h {
			take = h
		}
		if take <= 0 {
			return
		}
		if r.held.CompareAndSwap(h, h-take) {
			r.g.used.Add(-take)
			return
		}
	}
}

// ShouldSpill reports whether spilling this reservation's state is worth
// it after a denied grow: it must hold enough that flushing frees a useful
// fraction of the budget. A denial with almost nothing resident — another
// operator is pinning the budget — overshoots via ForceGrow instead;
// spilling a near-empty table would write one tiny file per row and turn
// the drain into a seek storm.
func (r *Reservation) ShouldSpill() bool {
	if r == nil {
		return false
	}
	// A quarter of the budget per flush keeps spill files big enough that
	// the drain's per-read seek cost stays amortized; the overshoot this
	// tolerates is bounded by one floor per concurrently-denied operator.
	floor := r.g.budget / 4
	if floor < 256 {
		floor = 256
	}
	return r.held.Load() >= floor
}

// Release returns everything held. Idempotent; Close paths call it
// unconditionally.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	if h := r.held.Swap(0); h > 0 {
		r.g.used.Add(-h)
	}
}

// datumBytes estimates the in-memory footprint of one datum: the tagged
// union struct plus string payload.
func datumBytes(d types.Datum) int64 {
	n := int64(48)
	n += int64(len(d.S))
	for _, e := range d.List {
		n += datumBytes(e)
	}
	return n
}

// rowBytes estimates a materialized row: slice header plus datums.
func rowBytes(row []types.Datum) int64 {
	n := int64(24)
	for _, d := range row {
		n += datumBytes(d)
	}
	return n
}

// writeRunFile spills rows as one block-framed run file under a fresh
// prefix-named scratch path, notes the bytes with the governor, and
// returns the file's path — the write path of state that is boxed by
// nature (the hash aggregate's encoded groups).
func writeRunFile(ctx *Context, prefix string, rows [][]types.Datum) (string, error) {
	fs, _ := ctx.spillTarget()
	w := spill.NewWriter(fs, ctx.SpillPath(prefix))
	for start := 0; start < len(rows); start += vector.BatchSize {
		end := start + vector.BatchSize
		if end > len(rows) {
			end = len(rows)
		}
		w.Append(rows[start:end])
	}
	return closeRunFile(ctx, w)
}

// closeRunFile publishes a run file, notes its bytes with the governor and
// returns its path.
func closeRunFile(ctx *Context, w *spill.Writer) (string, error) {
	n, err := w.Close()
	if err != nil {
		return "", err
	}
	ctx.Governor().NoteSpill(n)
	return w.Path(), nil
}

// rowBoxer is the one place columnar state is boxed for a spill: run files
// are row-encoded, so a flush boxes a block at a time into buffers it reuses
// for every block and file (the writer encodes a block before Append
// returns) — never a second resident copy of what is being spilled.
type rowBoxer struct {
	flat  []types.Datum
	block [][]types.Datum
}

// spill writes n rows of the given columns — physical rows sel[0:n], or
// 0..n-1 when sel is nil, each led by its key hash when hashes is non-nil —
// as one run file and returns its path.
func (x *rowBoxer) spill(ctx *Context, prefix string, hashes []uint64, cols []*vector.Vector, sel []int32, n int) (string, error) {
	fs, _ := ctx.spillTarget()
	w := spill.NewWriter(fs, ctx.SpillPath(prefix))
	width := len(cols)
	if hashes != nil {
		width++
	}
	if need := min(n, vector.BatchSize) * width; len(x.flat) < need {
		x.flat = make([]types.Datum, need)
	}
	for start := 0; start < n; start += vector.BatchSize {
		x.block = x.block[:0]
		for i := start; i < n && i < start+vector.BatchSize; i++ {
			r := i
			if sel != nil {
				r = int(sel[i])
			}
			at := len(x.block) * width
			row := x.flat[at : at : at+width]
			if hashes != nil {
				row = append(row, types.NewBigint(int64(hashes[r])))
			}
			for _, c := range cols {
				row = append(row, c.Get(r))
			}
			x.block = append(x.block, row)
		}
		w.Append(x.block)
	}
	return closeRunFile(ctx, w)
}

// rowStore is the governed columnar row store under the operators that
// materialize their input (window input, spool replay buffers, sort runs):
// one growing vector per column, filled by copy — an input batch may be a
// shared cache vector or be reused by its producer — and accounted by the
// bytes the columns hold, growth slack included. When the governor denies
// growth the resident rows flush to a run file through the boxer and the
// store starts over empty. The stored order is arrival order: runs in flush
// order, then the resident rows.
type rowStore struct {
	ctx    *Context
	res    *Reservation
	prefix string
	ts     []types.T

	cols     []*vector.Vector
	n        int
	strBytes int64 // payload bytes of the resident string values
	held     int64 // bytes accounted for the resident columns

	runs    []string
	spilled bool
	boxer   rowBoxer
}

// newRowStore opens a store of ts-typed columns accounting under op's
// reservation, spilling prefix-named run files.
func newRowStore(ctx *Context, op, prefix string, ts []types.T) *rowStore {
	st := &rowStore{ctx: ctx, res: ctx.Governor().Reserve(op), prefix: prefix, ts: ts}
	st.reset()
	return st
}

// reset drops the resident rows.
func (st *rowStore) reset() {
	st.cols = make([]*vector.Vector, len(st.ts))
	for c, t := range st.ts {
		st.cols[c] = vector.New(t, 0)
	}
	st.n, st.strBytes, st.held = 0, 0, 0
}

// appendBatch copies one input batch's live rows onto the columns and
// accounts what they grew by. It reports whether the caller should flush:
// the reservation was denied and holds enough to be worth a file.
func (st *rowStore) appendBatch(b *vector.Batch) (full bool) {
	for c, col := range st.cols {
		col.AppendRows(b.Cols[c], b.Sel, b.N)
		if col.Type.Kind == types.String {
			for _, s := range col.Str[st.n:] {
				st.strBytes += int64(len(s))
			}
		}
	}
	st.n += b.N
	now := st.strBytes
	for _, col := range st.cols {
		now += col.CapBytes()
	}
	grew := now - st.held
	st.held = now
	if st.res.Grow(grew) {
		return false
	}
	st.res.ForceGrow(grew)
	_, ok := st.ctx.spillTarget()
	return ok && st.res.ShouldSpill()
}

// flush writes the resident rows — in sel order when sel is non-nil, in
// arrival order otherwise — as one run file, then empties the store and
// returns its whole reservation, including whatever the caller took on top
// for its sort index.
func (st *rowStore) flush(sel []int32) error {
	path, err := st.boxer.spill(st.ctx, st.prefix, nil, st.cols, sel, st.n)
	if err != nil {
		return err
	}
	st.runs = append(st.runs, path)
	st.reset()
	st.res.Release()
	st.spilled = true
	return nil
}

// appendOrFlush is appendBatch for stores that spill in arrival order.
func (st *rowStore) appendOrFlush(b *vector.Batch) error {
	if st.appendBatch(b) {
		return st.flush(nil)
	}
	return nil
}

// gather returns the resident rows idx, in that order, as a fresh batch.
func (st *rowStore) gather(idx []int32) *vector.Batch {
	out := vector.NewBatch(st.ts, len(idx))
	for c, col := range st.cols {
		out.Cols[c].Gather(0, col, idx)
	}
	out.N = len(idx)
	return out
}

// replay returns a fresh pull over the stored content in arrival order: the
// run files, then views of the resident rows. Safe for concurrent replays
// once writing has stopped: each pull owns its readers and the store is
// read-only.
func (st *rowStore) replay() func() (*vector.Batch, error) {
	var filePull func() (*vector.Batch, error)
	if len(st.runs) > 0 {
		fs, _ := st.ctx.spillTarget()
		filePull = runFilePuller(fs, st.runs, st.ts)
	}
	at := 0
	return func() (*vector.Batch, error) {
		if filePull != nil {
			b, err := filePull()
			if err != nil || b != nil {
				return b, err
			}
			filePull = nil
		}
		if at >= st.n {
			return nil, nil
		}
		lo := at
		at = min(at+vector.BatchSize, st.n)
		return viewOf(st.cols, lo, at), nil
	}
}

// close removes the run files and returns the reservation.
func (st *rowStore) close() {
	if st == nil {
		return
	}
	st.ctx.removeSpills(st.runs)
	st.cols, st.runs, st.n = nil, nil, 0
	st.res.Release()
}

// spillTarget reports where this query's operators may spill. ok is false
// when the context has no scratch filesystem — then denial-driven spilling
// is impossible and operators fall back to ForceGrow.
func (c *Context) spillTarget() (fs *dfs.FS, ok bool) {
	if c == nil || c.FS == nil || c.ScratchDir == "" {
		return nil, false
	}
	return c.FS, true
}

// removeSpills deletes spill files an operator is done with (or never got
// to read); a context that cannot spill has none.
func (c *Context) removeSpills(paths []string) {
	if fs, ok := c.spillTarget(); ok {
		for _, path := range paths {
			fs.Remove(path, false)
		}
	}
}

// SpillPath returns a fresh unique scratch-file path for an operator spill.
// Safe for concurrent use by parallel workers.
func (c *Context) SpillPath(prefix string) string {
	return fmt.Sprintf("%s/%s_%06d", c.ScratchDir, prefix, c.spillSeq.Add(1))
}

// Governor returns the query's memory governor (nil when ungoverned).
func (c *Context) Governor() *Governor {
	if c == nil {
		return nil
	}
	return c.Mem
}
