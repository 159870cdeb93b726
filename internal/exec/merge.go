// Order-preserving parallel sort (paper §5.1): the parallel planner places
// Sort/TopN below the exchange, so every worker produces a locally sorted
// run over its share of the morsel stream, and the coordinator merges the
// runs through a streaming loser-tree k-way merge (MergeOp) instead of the
// unordered bounded-channel exchange. TopN parallelizes with per-worker
// bounded heaps merged into one final heap (ParallelTopNOp) — the LIMIT is
// pushed into every run. This removes the last coordinator-serialized
// relational operator in the parallel path: the coordinator's share of an
// ORDER BY drops from the full O(n log n) sort to the O(n log k) merge.
//
// The same loser tree also drains the external sort (sort.go): run cursors
// are source-agnostic, so worker channels, spilled run files on the DFS
// and the sort's resident remainder merge uniformly.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/dfs"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// runCursor streams one sorted run batch by batch; the current row is
// (b, i) in place — never materialized to a datum slice, this is the
// merge's hot loop — and b == nil marks an exhausted run. pull supplies the
// next batch from whatever backs the run (a worker channel, a spill file,
// a gather over resident columns); returning (nil, nil) ends the run, and a
// pull error parks in err and ends the run too.
type runCursor struct {
	pull func() (*vector.Batch, error)
	b    *vector.Batch
	i    int // live-row ordinal within b
	err  error
}

// advance moves to the run's next row, pulling a new batch when the
// current one is spent; it reports false at end of run (check err).
func (c *runCursor) advance() bool {
	for {
		if c.b != nil && c.i+1 < c.b.N {
			c.i++
			return true
		}
		b, err := c.pull()
		if err != nil {
			c.b, c.err = nil, err
			return false
		}
		if b == nil {
			c.b = nil
			return false
		}
		if b.N == 0 {
			continue
		}
		c.b, c.i = b, 0
		return true
	}
}

// live reports whether the cursor still has a current row.
func (c *runCursor) live() bool { return c.b != nil }

// chanRunCursor wraps a worker's ordered batch channel (MergeOp's runs).
func chanRunCursor(ch <-chan *vector.Batch) *runCursor {
	return &runCursor{pull: func() (*vector.Batch, error) {
		b, ok := <-ch
		if !ok {
			return nil, nil
		}
		return b, nil
	}}
}

// runFilePuller streams the given spill files, in order, back as batches
// — one block of rows in memory at a time. It backs both the file-run
// cursors of the external sort merge and the Grace join's probe replay.
func runFilePuller(fs *dfs.FS, paths []string, ts []types.T) func() (*vector.Batch, error) {
	var r *spill.Reader
	var rows [][]types.Datum
	file, start := 0, 0
	return func() (*vector.Batch, error) {
		for {
			if start < len(rows) {
				b := emitRows(rows, start, ts)
				start += b.N
				return b, nil
			}
			if r == nil {
				if file >= len(paths) {
					return nil, nil
				}
				rr, err := spill.OpenReader(fs, paths[file])
				if err != nil {
					return nil, err
				}
				file++
				r = rr
			}
			var err error
			rows, err = r.Next()
			if err != nil {
				return nil, err
			}
			if rows == nil {
				r = nil
				continue
			}
			start = 0
		}
	}
}

// fileRunCursor streams one spilled sorted run back from the DFS — k
// file-backed runs cost k resident blocks, not k whole runs, which is what
// makes the merge beyond-memory capable.
func fileRunCursor(fs *dfs.FS, path string, ts []types.T) *runCursor {
	return &runCursor{pull: runFilePuller(fs, []string{path}, ts)}
}

// loserTree is the k-way merge tournament: leaves are run cursors, each
// internal node stores the loser of the match played there and the overall
// winner (the smallest current row) sits at tree[0]. Advancing the winner
// replays only its leaf-to-root path — O(log k) comparisons per row versus
// O(k) for rescanning every run head.
type loserTree struct {
	size int // leaf count padded to a power of two
	tree []int
	runs []*runCursor
	cmp  func(ab *vector.Batch, ai int, bb *vector.Batch, bi int) int
}

// newLoserTree builds the tournament; every cursor must already be primed
// (advanced to its first row, or exhausted).
func newLoserTree(runs []*runCursor, cmp func(ab *vector.Batch, ai int, bb *vector.Batch, bi int) int) *loserTree {
	size := 1
	for size < len(runs) {
		size *= 2
	}
	lt := &loserTree{size: size, tree: make([]int, size), runs: runs, cmp: cmp}
	if size == 1 {
		lt.tree[0] = 0
		return lt
	}
	lt.tree[0] = lt.build(1)
	return lt
}

// build plays the full tournament under node t, storing each match's loser
// at its node, and returns the winner. Leaves beyond the real run count are
// the padding of the power-of-two tree and lose every match.
func (lt *loserTree) build(t int) int {
	if t >= lt.size {
		leaf := t - lt.size
		if leaf >= len(lt.runs) {
			return -1
		}
		return leaf
	}
	a, b := lt.build(2*t), lt.build(2*t+1)
	if lt.beats(a, b) {
		lt.tree[t] = b
		return a
	}
	lt.tree[t] = a
	return b
}

// beats reports whether contestant a wins (orders before) contestant b.
// Exhausted runs and padding lose to live runs; ties go to the lower run
// index, making the merge deterministic for a given run assignment.
func (lt *loserTree) beats(a, b int) bool {
	if a < 0 || !lt.runs[a].live() {
		return false
	}
	if b < 0 || !lt.runs[b].live() {
		return true
	}
	ca, cb := lt.runs[a], lt.runs[b]
	if c := lt.cmp(ca.b, ca.i, cb.b, cb.i); c != 0 {
		return c < 0
	}
	return a < b
}

// winner returns the run index holding the smallest current row, or -1 when
// every run is exhausted.
func (lt *loserTree) winner() int {
	w := lt.tree[0]
	if w < 0 || !lt.runs[w].live() {
		return -1
	}
	return w
}

// challenger returns the run that would win the tournament if run s were
// exhausted: the best among the losers stored on s's leaf-to-root path.
// It returns -1 when no other run is live.
func (lt *loserTree) challenger(s int) int {
	best := -1
	for t := (lt.size + s) / 2; t > 0; t /= 2 {
		if lt.beats(lt.tree[t], best) {
			best = lt.tree[t]
		}
	}
	if best < 0 || !lt.runs[best].live() {
		return -1
	}
	return best
}

// fix replays leaf s's path to the root after its cursor advanced: at each
// node the stored loser and the incoming winner play again, the loser stays
// and the winner moves up.
func (lt *loserTree) fix(s int) {
	winner := s
	for t := (lt.size + s) / 2; t > 0; t /= 2 {
		if lt.beats(lt.tree[t], winner) {
			lt.tree[t], winner = winner, lt.tree[t]
		}
	}
	lt.tree[0] = winner
}

// copySpan copies live rows lo..hi-1 of b into out starting at row n. The
// runs the merge consumes emit dense batches (no selection vector), which
// take the multi-row CopyRows path — one slice copy per column.
func copySpan(out *vector.Batch, n int, b *vector.Batch, lo, hi int) {
	if b.Sel == nil {
		for c := range out.Cols {
			out.Cols[c].CopyRows(n, b.Cols[c], lo, hi-lo)
		}
		return
	}
	for i := lo; i < hi; i++ {
		r := b.Sel[i]
		for c := range out.Cols {
			out.Cols[c].CopyRow(n+(i-lo), b.Cols[c], r)
		}
	}
}

// emit streams the next batch of globally ordered rows out of the tree, or
// nil when every run is exhausted. Consecutive winners from the same run
// gather into multi-row span copies: once winner w is known, its
// challenger (the run that would win were w exhausted) is read off w's
// leaf-to-root path, and w's rows keep copying — without replaying the
// tournament — for as long as they beat the challenger's current row,
// which stands still the whole streak. Skewed merges pay one fix() per
// streak instead of one per row, and the copies vectorize per column.
//
// onEnd, when non-nil, runs every time a run is exhausted, before any row
// from another run is emitted. MergeOp surfaces worker errors there: a run
// that ended because its worker failed ended *early*, and everything
// merged past it would wrongly skip its unsent rows — a downstream LIMIT
// could return that broken prefix without ever reaching end-of-stream.
func (lt *loserTree) emit(ts []types.T, onEnd func() error) (*vector.Batch, error) {
	var out *vector.Batch
	n := 0
	for n < vector.BatchSize {
		w := lt.winner()
		if w < 0 {
			break
		}
		if out == nil {
			out = vector.NewBatch(ts, vector.BatchSize)
		}
		cur := lt.runs[w]
		var cb *runCursor
		ch := lt.challenger(w)
		if ch >= 0 {
			cb = lt.runs[ch]
		}
		for n < vector.BatchSize {
			// Rows within a run are sorted, so the rows still beating the
			// challenger form a prefix of the current batch's remainder.
			lo := cur.i
			hi := lo + 1
			if cb == nil {
				hi = lo + (cur.b.N - lo)
				if room := vector.BatchSize - n; hi-lo > room {
					hi = lo + room
				}
			} else {
				for hi < cur.b.N && n+(hi-lo) < vector.BatchSize {
					c := lt.cmp(cur.b, hi, cb.b, cb.i)
					if c < 0 || (c == 0 && w < ch) {
						hi++
					} else {
						break
					}
				}
			}
			copySpan(out, n, cur.b, lo, hi)
			n += hi - lo
			cur.i = hi - 1
			if !cur.advance() {
				if cur.err != nil {
					return nil, cur.err
				}
				if onEnd != nil {
					if err := onEnd(); err != nil {
						return nil, err
					}
				}
				break
			}
			if cb != nil {
				c := lt.cmp(cur.b, cur.i, cb.b, cb.i)
				if !(c < 0 || (c == 0 && w < ch)) {
					break
				}
			}
		}
		lt.fix(w)
	}
	if n == 0 {
		return nil, nil
	}
	out.N = n
	return out, nil
}

// MergeOp is the order-preserving exchange: worker pipelines each emit a
// run already sorted by Keys (the planner wraps clones in SortOp) on their
// own goroutines, and Next streams globally ordered batches out of a
// loser-tree merge over the runs. It shares ParallelOp's exchange
// lifecycle but gives every run its own bounded channel — per-run channels
// preserve each run's order, which the shared arrival-order channel
// deliberately does not — so a Close mid-merge (LIMIT satisfied upstream)
// unwinds workers blocked on their sends without leaking goroutines.
type MergeOp struct {
	// Workers must each produce rows sorted by Keys, in freshly allocated
	// batches (the merge holds a batch reference while the worker runs
	// ahead; SortOp and TopNOp, the planner's runs, satisfy both).
	Workers []Operator
	Keys    []plan.SortKey
	Ctx     *Context

	exchange
	chans   []chan *vector.Batch
	cursors []*runCursor
	lt      *loserTree
}

// Types implements Operator.
func (m *MergeOp) Types() []types.T { return m.Workers[0].Types() }

// Open implements Operator. Workers launch at the first Next so upstream
// build sides run before any worker can block on them.
func (m *MergeOp) Open() error {
	m.reset()
	m.chans, m.cursors, m.lt = nil, nil, nil
	return nil
}

// start acquires executor slots and launches the sorted-run workers, one
// ordered channel each, closed when its run ends so the merge sees EOF.
func (m *MergeOp) start() {
	n := m.begin(m.Ctx, len(m.Workers))
	m.chans = make([]chan *vector.Batch, n)
	m.cursors = make([]*runCursor, n)
	for w := 0; w < n; w++ {
		ch := make(chan *vector.Batch, 2)
		m.chans[w] = ch
		m.cursors[w] = chanRunCursor(ch)
		m.wg.Add(1)
		go func(i int, wk Operator) {
			defer m.wg.Done()
			defer close(m.chans[i])
			m.drainWorker(wk, func(b *vector.Batch) bool {
				select {
				case m.chans[i] <- b:
					return true
				case <-m.done:
					return false
				}
			})
		}(w, m.Workers[w])
	}
}

// Next implements Operator: it streams the next batch of globally ordered
// rows out of the loser tree. Worker errors are surfaced whenever a run
// ends (the error is recorded before the failed channel closes, so the
// check catches the failure before one bad row is emitted) and at end of
// merge.
func (m *MergeOp) Next() (*vector.Batch, error) {
	if !m.started {
		m.start()
	}
	if m.lt == nil {
		for _, c := range m.cursors {
			if !c.advance() {
				if err := m.firstErr(); err != nil {
					return nil, err
				}
			}
		}
		m.lt = newLoserTree(m.cursors, sortCompareAt(m.Keys))
	}
	out, err := m.lt.emit(m.Types(), m.firstErr)
	if err != nil {
		return nil, err
	}
	if out == nil {
		// Every run ended — cleanly or because the shutdown drained the
		// rest after a failure. Surface the first error either way.
		return nil, m.firstErr()
	}
	return out, nil
}

// Close implements Operator.
func (m *MergeOp) Close() error {
	m.shutdown()
	return closeWorkers(m.Workers)
}

// Child implements Node.
func (m *MergeOp) Child(i int) *Operator { return nthChild(i, m.Workers) }

// Describe implements Node.
func (m *MergeOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "MergeExchange workers=%d keys=%s", len(m.Workers), sortKeysDigest(m.Keys))
}

// Stage implements Node.
func (m *MergeOp) Stage() Stage { return StagePlaced }

// Delivers implements the property fact: the loser-tree merge preserves the
// per-run order globally.
func (m *MergeOp) Delivers() plan.Properties { return plan.Properties{Ordering: m.Keys} }

// ParallelTopNOp is the two-phase parallel TopN: every worker pipeline
// feeds a thread-local bounded heap of its best rows (the LIMIT — plus any
// OFFSET — pushed into the run), and the per-worker survivors merge
// through one final heap before emission, where the offset rows are
// skipped exactly once — at most workers×(offset+limit) rows ever reach
// the coordinator.
type ParallelTopNOp struct {
	Workers []Operator
	Keys    []plan.SortKey
	N       int64
	Offset  int64
	Ctx     *Context

	res  *Reservation
	out  batchViews // the kept rows past the offset, in key order
	done bool
}

// Types implements Operator.
func (t *ParallelTopNOp) Types() []types.T { return t.Workers[0].Types() }

// Open implements Operator. Worker pipelines open on their goroutines.
func (t *ParallelTopNOp) Open() error {
	t.out = batchViews{}
	if t.res == nil {
		t.res = t.Ctx.Governor().Reserve("topn")
	}
	// N == 0 short-circuits to EOF without ever opening a worker,
	// mirroring the serial TopNOp.
	t.done = t.N <= 0
	return nil
}

// run executes both phases: parallel per-worker TopN, then the final heap
// merge. Ties across workers follow run assignment, which is dynamic —
// like every parallel exchange here, only key order is deterministic. The
// worker heaps and the final one share the operator's reservation.
func (t *ParallelTopNOp) run() error {
	keep := t.N + t.Offset
	locals := make([][][]types.Datum, len(t.Workers))
	err := runPhased(t.Ctx, len(t.Workers), func(w int) error {
		local := &TopNOp{Input: t.Workers[w], Keys: t.Keys, N: keep, Ctx: t.Ctx, res: t.res}
		if err := local.Open(); err != nil {
			return err
		}
		rows, err := local.consume()
		locals[w] = rows
		return err
	})
	if err != nil {
		return err
	}
	final := newTopNHeap(t.Keys, keep, t.res)
	for _, rows := range locals {
		for _, r := range rows {
			final.add(r)
		}
	}
	t.out.b = rowsBatch(dropOffset(final.sorted(), t.Offset), t.Types())
	return nil
}

// Next implements Operator.
func (t *ParallelTopNOp) Next() (*vector.Batch, error) {
	if !t.done {
		if err := t.run(); err != nil {
			return nil, err
		}
		t.done = true
	}
	return t.out.next(), nil
}

// Close implements Operator.
func (t *ParallelTopNOp) Close() error {
	t.out = batchViews{}
	t.res.Release()
	return closeWorkers(t.Workers)
}

// Child implements Node.
func (t *ParallelTopNOp) Child(i int) *Operator { return nthChild(i, t.Workers) }

// Describe implements Node.
func (t *ParallelTopNOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "ParallelTopN workers=%d n=%d keys=%s", len(t.Workers), t.N, sortKeysDigest(t.Keys))
}

// Stage implements Node.
func (t *ParallelTopNOp) Stage() Stage { return StagePlaced }

// Delivers implements the property fact.
func (t *ParallelTopNOp) Delivers() plan.Properties { return plan.Properties{Ordering: t.Keys} }
