package exec

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// genOp emits n rows (i, i*3) across many batches and counts its Opens, so
// spool tests can assert single-flight materialization.
type genOp struct {
	n     int
	opens atomic.Int64
	pos   int
}

func (g *genOp) Types() []types.T { return []types.T{types.TBigint, types.TBigint} }
func (g *genOp) Open() error      { g.opens.Add(1); g.pos = 0; return nil }
func (g *genOp) Close() error     { return nil }
func (g *genOp) Next() (*vector.Batch, error) {
	if g.pos >= g.n {
		return nil, nil
	}
	n := g.n - g.pos
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	b := vector.NewBatch(g.Types(), n)
	for i := 0; i < n; i++ {
		b.Cols[0].Set(i, types.NewBigint(int64(g.pos+i)))
		b.Cols[1].Set(i, types.NewBigint(int64(g.pos+i)*3))
	}
	b.N = n
	g.pos += n
	return b, nil
}

// drainSpool pulls every row's first column out of one consumer.
func drainSpool(t *testing.T, op Operator) []int64 {
	t.Helper()
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].I
	}
	return out
}

// TestSpoolSingleFlightReplay runs many full-replay consumers of one spool
// concurrently: the input must open exactly once and every consumer must
// see every row in order. Run under -race this is the concurrency-safety
// proof for the shared materialization.
func TestSpoolSingleFlightReplay(t *testing.T) {
	for _, budget := range []int64{0, 4096} {
		env := newSpillEnv(budget)
		in := &genOp{n: 3000}
		const consumers = 8
		var wg sync.WaitGroup
		results := make([][]int64, consumers)
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sp := &SpoolOp{ID: 7, Input: in, Ctx: env.ctx}
				results[c] = drainSpool(t, sp)
			}(c)
		}
		wg.Wait()
		if got := in.opens.Load(); got != 1 {
			t.Fatalf("budget=%d: input opened %d times, want 1 (single-flight)", budget, got)
		}
		for c, got := range results {
			if len(got) != 3000 {
				t.Fatalf("budget=%d consumer %d: %d rows, want 3000", budget, c, len(got))
			}
			for i, v := range got {
				if v != int64(i) {
					t.Fatalf("budget=%d consumer %d: row %d = %d, want %d (replay must preserve arrival order)", budget, c, i, v, i)
				}
			}
		}
		if budget > 0 && env.ctx.Governor().SpilledBytes() == 0 {
			t.Fatalf("4K budget over 3000 rows did not spill the spool")
		}
		env.ctx.CloseSpools()
		if leaks := env.leakedFiles(t); len(leaks) != 0 {
			t.Fatalf("budget=%d: CloseSpools leaked %v", budget, leaks)
		}
	}
}

// TestSpoolCursorSplitsContent drives one consumer's worker clones through
// a shared cursor: every row must reach exactly one clone and the union
// must be the full content — the invariant that lets the parallel planner
// admit spooled subtrees into worker pipelines.
func TestSpoolCursorSplitsContent(t *testing.T) {
	for _, budget := range []int64{0, 4096} {
		env := newSpillEnv(budget)
		in := &genOp{n: 5000}
		cursor := &spoolCursor{}
		const clones = 6
		var wg sync.WaitGroup
		parts := make([][]int64, clones)
		for c := 0; c < clones; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sp := &SpoolOp{ID: 3, Input: in, Ctx: env.ctx, Cursor: cursor}
				parts[c] = drainSpool(t, sp)
			}(c)
		}
		wg.Wait()
		if got := in.opens.Load(); got != 1 {
			t.Fatalf("budget=%d: input opened %d times, want 1", budget, got)
		}
		seen := make(map[int64]int)
		total := 0
		for _, part := range parts {
			total += len(part)
			for _, v := range part {
				seen[v]++
			}
		}
		if total != 5000 {
			t.Fatalf("budget=%d: clones saw %d rows total, want 5000 (each row exactly once)", budget, total)
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("budget=%d: row %d delivered %d times", budget, v, n)
			}
		}
		env.ctx.CloseSpools()
		if leaks := env.leakedFiles(t); len(leaks) != 0 {
			t.Fatalf("budget=%d: leaked %v", budget, leaks)
		}
	}
}

// mixedOp emits n rows of (bigint, nullable string, double) so a spool's
// store holds every backing representation and a null mask.
type mixedOp struct{ n, pos int }

var mixedTypes = []types.T{types.TBigint, types.TString, types.TDouble}

func (m *mixedOp) Types() []types.T { return mixedTypes }
func (m *mixedOp) Open() error      { m.pos = 0; return nil }
func (m *mixedOp) Close() error     { return nil }
func (m *mixedOp) Next() (*vector.Batch, error) {
	if m.pos >= m.n {
		return nil, nil
	}
	n := min(300, m.n-m.pos)
	b := vector.NewBatch(mixedTypes, n)
	for i := 0; i < n; i++ {
		r := m.pos + i
		b.Cols[0].I64[i] = int64(r)
		if r%7 == 0 {
			b.Cols[1].SetNull(i)
		} else {
			b.Cols[1].Str[i] = string(rune('a' + r%26))
		}
		b.Cols[2].F64[i] = float64(r) / 2
	}
	b.N = n
	m.pos += n
	return b, nil
}

// storeChecksum folds every value and null flag of the store's resident
// columns into one number.
func storeChecksum(st *rowStore) uint64 {
	h := vector.HashSeed
	for _, col := range st.cols {
		for r := 0; r < st.n; r++ {
			h = h*vector.HashPrime ^ col.HashAt(r)
		}
	}
	return h
}

// TestSpoolViewsImmutable pins what zero-copy replay rests on: consumers
// only read the batches they pull. One spool feeds a filtering and a
// projecting consumer, each split across two worker clones through a shared
// cursor, all four running at once over views of the same columns; the
// store's content must be bit-identical afterwards. Under -race any write
// into a view is also a reported race against the other consumer's reads.
func TestSpoolViewsImmutable(t *testing.T) {
	const rows = 20000
	env := newSpillEnv(0)
	in := &mixedOp{n: rows}
	sp := env.ctx.sharedSpool(9)
	if err := sp.materialize(in, env.ctx); err != nil {
		t.Fatal(err)
	}
	if sp.store.n != rows || sp.store.spilled {
		t.Fatalf("store holds %d rows (spilled=%v), want %d resident", sp.store.n, sp.store.spilled, rows)
	}
	before := storeChecksum(sp.store)

	col := func(i int) plan.Rex { return &plan.ColRef{Idx: i, T: mixedTypes[i]} }
	pred, err := Compile(&plan.Func{Op: "isnotnull", T: types.TBool, Args: []plan.Rex{col(1)}}, mixedTypes)
	if err != nil {
		t.Fatal(err)
	}
	exprs, err := CompileAll([]plan.Rex{
		col(1), // a bare reference passes the view itself downstream
		&plan.Func{Op: "+", T: types.TBigint, Args: []plan.Rex{col(0), plan.NewLiteral(types.NewBigint(1))}},
		&plan.Func{Op: "coalesce", T: types.TString, Args: []plan.Rex{col(1), plan.NewLiteral(types.NewString("none"))}},
	}, mixedTypes)
	if err != nil {
		t.Fatal(err)
	}
	consumer := func(wrap func(Operator) Operator) Operator {
		cursor := &spoolCursor{}
		clone := func() Operator { return wrap(&SpoolOp{ID: 9, Input: in, Ctx: env.ctx, Cursor: cursor}) }
		// Sort on top: a blocking consumer that holds what it was handed.
		return &SortOp{Input: &ParallelOp{Workers: []Operator{clone(), clone()}, Ctx: env.ctx}, Keys: []plan.SortKey{{Col: 0, Desc: true}}, Ctx: env.ctx}
	}
	filtering := consumer(func(in Operator) Operator { return &FilterOp{Input: in, Pred: pred} })
	projecting := consumer(func(in Operator) Operator {
		return &ProjectOp{Input: in, Exprs: exprs, Out: []types.T{types.TString, types.TBigint, types.TString}}
	})
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for i, op := range []Operator{filtering, projecting} {
		wg.Add(1)
		go func(i int, op Operator) {
			defer wg.Done()
			got, err := Drain(op)
			if err != nil {
				t.Error(err)
			}
			counts[i] = len(got)
		}(i, op)
	}
	wg.Wait()
	if want := rows - (rows+6)/7; counts[0] != want || counts[1] != rows {
		t.Errorf("consumers saw %d and %d rows, want %d and %d", counts[0], counts[1], want, rows)
	}
	if after := storeChecksum(sp.store); after != before {
		t.Errorf("store checksum %x after replay, %x before: a consumer wrote through a view", after, before)
	}
	env.ctx.CloseSpools()
	if used := env.ctx.Mem.UsedBytes(); used != 0 {
		t.Errorf("%d bytes still reserved after CloseSpools", used)
	}
}
