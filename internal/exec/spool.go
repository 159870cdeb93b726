// Shared-work spool (paper §4.5), memory-governed and concurrency-safe.
//
// A sharedSpool materializes one shared subtree exactly once per query —
// single-flight through sync.Once, so concurrent consumers (serial plan
// siblings or parallel worker clones) block until the winner publishes —
// and replays the result to every consumer. The replay buffer is a
// budgeted columnar rowStore: batches copy onto its columns under the query
// governor as they materialize, and a denied reservation flushes them to
// arrival-order run files on the DFS scratch directory. After publication
// the state is immutable (resident columns plus write-once run files), so
// each replay hands out zero-copy views of the columns without locks — a
// consumer of the shared scan pays no copy of its own.
//
// Two consumption modes share the materialization:
//
//   - Replay: a plan-level consumer streams the full content through its
//     own cursor (every consumer sees every row).
//   - Cursor: the worker clones of ONE parallelized consumer split the
//     content morsel-style through a shared spoolCursor — each batch goes
//     to exactly one clone, so the clones' merged output equals a single
//     full replay. This is what lets cloneWorkers admit spooled subtrees
//     into worker pipelines.
package exec

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// sharedSpool is the per-query state of one spool id: single-flight
// materialization, then immutable published content.
type sharedSpool struct {
	once sync.Once
	err  error

	// store is the governed arrival-order content (mem.go), immutable
	// after once completes: replays hand out views of its columns.
	store   *rowStore
	cleanup sync.Once
}

// sharedSpool returns (creating on first use) the query-wide state for a
// spool id. Safe for concurrent use by parallel worker clones.
func (c *Context) sharedSpool(id int) *sharedSpool {
	c.spoolMu.Lock()
	defer c.spoolMu.Unlock()
	if c.spools == nil {
		c.spools = make(map[int]*sharedSpool)
	}
	sp := c.spools[id]
	if sp == nil {
		sp = &sharedSpool{}
		c.spools[id] = sp
	}
	return sp
}

// materialize drains the input exactly once, whoever gets here first; the
// rest block until the content is published. The input operator is owned
// by the winner for the duration — consumers never touch it otherwise.
func (sp *sharedSpool) materialize(in Operator, ctx *Context) error {
	sp.once.Do(func() { sp.err = sp.run(in, ctx) })
	return sp.err
}

func (sp *sharedSpool) run(in Operator, ctx *Context) error {
	sp.store = newRowStore(ctx, "spool", "spool", in.Types())
	if err := in.Open(); err != nil {
		return err
	}
	defer in.Close()
	for {
		if err := ctx.CheckCanceled(); err != nil {
			return err
		}
		b, err := in.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := sp.store.appendOrFlush(b); err != nil {
			return err
		}
	}
}

// replay returns a fresh pull over the full content: the spilled runs in
// arrival order, then zero-copy views of the resident columns. Each
// consumer holds its own readers and nothing writes the columns after
// publication, so concurrent replays never share mutable state.
func (sp *sharedSpool) replay() func() (*vector.Batch, error) {
	return sp.store.replay()
}

// release removes the spill runs and returns the reservation, exactly
// once. Spool lifetime is the query, not any one consumer — a join build
// side closes long before the probe side replays — so this runs from
// Context.CloseSpools after the whole tree has closed, never from a
// consumer's Close; the query-level scratch sweep remains the backstop.
func (sp *sharedSpool) release() {
	sp.cleanup.Do(func() { sp.store.close() })
}

// spoolCursor splits one spool's content across the worker clones of a
// single parallelized consumer: each next() hands out the stream's next
// batch under a mutex, so every batch reaches exactly one clone.
type spoolCursor struct {
	mu   sync.Mutex
	pull func() (*vector.Batch, error)
}

func (c *spoolCursor) next(sp *sharedSpool) (*vector.Batch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pull == nil {
		c.pull = sp.replay()
	}
	return c.pull()
}

// SpoolOp is one consumer of a shared materialization (shared work
// optimizer, paper §4.5). Materialization is deferred to the first Next so
// runtime semijoin reducers inside the shared subtree are not pulled
// before their build sides have run.
type SpoolOp struct {
	ID    int
	Input Operator
	Ctx   *Context
	// Cursor, when set by the parallel planner, switches this consumer's
	// clones to split consumption: the clones share the cursor and their
	// merged output equals one full replay.
	Cursor *spoolCursor

	ts   []types.T
	sp   *sharedSpool
	pull func() (*vector.Batch, error)
}

// Types implements Operator. The schema is resolved once and carried to
// clones, so concurrent workers never race on a memoizing Input.Types.
func (s *SpoolOp) Types() []types.T {
	if s.ts == nil {
		s.ts = s.Input.Types()
	}
	return s.ts
}

// Open implements Operator.
func (s *SpoolOp) Open() error {
	s.sp = s.Ctx.sharedSpool(s.ID)
	s.pull = nil
	return nil
}

// Next implements Operator.
func (s *SpoolOp) Next() (*vector.Batch, error) {
	if err := s.sp.materialize(s.Input, s.Ctx); err != nil {
		return nil, err
	}
	if s.Cursor != nil {
		return s.Cursor.next(s.sp)
	}
	if s.pull == nil {
		s.pull = s.sp.replay()
	}
	return s.pull()
}

// Close implements Operator. The shared materialization intentionally
// survives this consumer: other consumers elsewhere in the plan may not
// have replayed yet. Context.CloseSpools reclaims it at query end.
//
//lint:ignore close-and-cancel spool lifetime is the query, not this consumer; Context.CloseSpools closes the shared input exactly once
func (s *SpoolOp) Close() error {
	s.pull = nil
	return nil
}

// Child implements Node.
func (s *SpoolOp) Child(i int) *Operator { return oneChild(i, &s.Input) }

// Describe implements Node.
func (s *SpoolOp) Describe(b *strings.Builder) { fmt.Fprintf(b, "Spool id=%d", s.ID) }

// Stage implements Node.
func (s *SpoolOp) Stage() Stage { return StagePipelined }

// Delivers implements the property fact: replay is in materialization
// (= input) order; a parallel shared cursor hands each consumer a
// subsequence, which is still ordered but not partition-aligned.
func (s *SpoolOp) Delivers() plan.Properties { return orderOf(s.Input) }

// CloseSpools releases every shared spool — reservations returned, spill
// runs removed. Runners call it once per query after the operator tree has
// fully closed.
func (c *Context) CloseSpools() {
	c.spoolMu.Lock()
	spools := c.spools
	c.spools = nil
	c.spoolMu.Unlock()
	for _, sp := range spools {
		sp.release()
	}
}
