package exec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/plan"
	"repro/internal/types"
)

// spillEnv is a governed execution context over a fresh DFS scratch
// directory, plus the probes the spill tests assert on.
type spillEnv struct {
	fs  *dfs.FS
	ctx *Context
}

func newSpillEnv(budget int64) *spillEnv {
	fs := dfs.New()
	fs.MkdirAll("/scratch")
	ctx := NewContext()
	ctx.Mem = NewGovernor(budget)
	ctx.FS = fs
	ctx.ScratchDir = "/scratch"
	return &spillEnv{fs: fs, ctx: ctx}
}

// leakedFiles returns the scratch files still on disk.
func (e *spillEnv) leakedFiles(t *testing.T) []string {
	t.Helper()
	infos, err := e.fs.ListRecursive("/scratch")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, fi := range infos {
		out = append(out, fi.Path)
	}
	return out
}

// storeBytes returns what a rowStore accounts for holding rows — the
// figure a test budget is a fraction of when it must force a spill.
func storeBytes(rows [][]types.Datum, ts []types.T) int64 {
	st := newRowStore(nil, "", "", ts)
	st.appendBatch(rowsBatch(rows, ts))
	return st.held
}

func rowsEqual(a, b [][]types.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			x, y := a[i][c], b[i][c]
			if x.Null != y.Null || (!x.Null && x.Compare(y) != 0) {
				return false
			}
		}
	}
	return true
}

// runExternalSortTrial checks one random input against the in-memory
// stable sort, including tie order (the unique id column of randomRows
// pins every row): external and in-memory sorts must be byte-identical.
func runExternalSortTrial(t *testing.T, rng *rand.Rand) {
	t.Helper()
	n := 1 + rng.Intn(4000)
	batch := 1 + rng.Intn(200)
	budget := int64(1 + rng.Intn(64*1024))
	rows := randomRows(rng, n)
	keys := []plan.SortKey{{Col: 0, Desc: rng.Intn(2) == 0, NullsFirst: rng.Intn(2) == 0}, {Col: 1}}

	want := make([][]types.Datum, n)
	copy(want, rows)
	sortRows(want, keys)

	env := newSpillEnv(budget)
	op := &SortOp{Input: &rowsOp{ts: mergeTestTypes, rows: rows, batch: batch}, Keys: keys, Ctx: env.ctx}
	got, err := Drain(op)
	if err != nil {
		t.Fatalf("n=%d budget=%d: %v", n, budget, err)
	}
	if !rowsEqual(got, want) {
		t.Fatalf("n=%d batch=%d budget=%d: external sort diverges from stable in-memory sort", n, batch, budget)
	}
	if leaks := env.leakedFiles(t); len(leaks) != 0 {
		t.Fatalf("n=%d budget=%d: leaked spill files after Close: %v", n, budget, leaks)
	}
}

// TestExternalSortProperty is the fixed-seed property test: random batch
// sizes, budgets small enough to force many runs, ascending/descending and
// NULLS FIRST/LAST keys. The seed-randomized twin runs under -tags stress.
func TestExternalSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		runExternalSortTrial(t, rng)
	}
}

// TestExternalSortActuallySpills pins the mechanism: a budget far below
// the working set must produce spilled bytes and multiple runs, and an
// unlimited budget must not write a byte.
func TestExternalSortActuallySpills(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randomRows(rng, 2000)
	keys := []plan.SortKey{{Col: 0}, {Col: 2}}

	env := newSpillEnv(8 * 1024)
	op := &SortOp{Input: &rowsOp{ts: mergeTestTypes, rows: rows, batch: 64}, Keys: keys, Ctx: env.ctx}
	if _, err := Drain(op); err != nil {
		t.Fatal(err)
	}
	if env.ctx.Mem.SpilledBytes() == 0 {
		t.Fatal("budget 8KiB over ~2000 rows: expected spilled bytes")
	}
	if env.ctx.Mem.PeakBytes() == 0 {
		t.Fatal("expected nonzero peak accounting")
	}

	free := newSpillEnv(0)
	op = &SortOp{Input: &rowsOp{ts: mergeTestTypes, rows: rows, batch: 64}, Keys: keys, Ctx: free.ctx}
	if _, err := Drain(op); err != nil {
		t.Fatal(err)
	}
	if free.ctx.Mem.SpilledBytes() != 0 {
		t.Fatal("unlimited budget should not spill")
	}
}

// TestSortSpillCleanupOnError covers the mid-query failure path: the input
// errors after runs have spilled, and Close must still remove every
// scratch file.
func TestSortSpillCleanupOnError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randomRows(rng, 1500)
	env := newSpillEnv(4 * 1024)
	op := &SortOp{
		Input: &rowsOp{ts: mergeTestTypes, rows: rows, batch: 50, errAt: 1200},
		Keys:  []plan.SortKey{{Col: 0}},
		Ctx:   env.ctx,
	}
	if _, err := Drain(op); err == nil {
		t.Fatal("expected injected failure")
	}
	if env.ctx.Mem.SpilledBytes() == 0 {
		t.Fatal("failure was injected after spilling should have started")
	}
	if leaks := env.leakedFiles(t); len(leaks) != 0 {
		t.Fatalf("leaked spill files after failed query: %v", leaks)
	}
	if used := env.ctx.Mem.UsedBytes(); used != 0 {
		t.Fatalf("reservation leak: %d bytes still held after Close", used)
	}
}

// budgetedRun executes a SQL query against the exec test warehouse with a
// governed context and reports the rows plus the governor.
func (w *testWarehouse) budgetedRun(t *testing.T, q string, budget int64) ([]string, *Governor) {
	t.Helper()
	ctx := NewContext()
	ctx.Mem = NewGovernor(budget)
	ctx.FS = w.ms.FS()
	ctx.ScratchDir = "/wh/_scratch/test"
	w.ms.FS().MkdirAll(ctx.ScratchDir)
	rows, err := w.runWith(ctx, q)
	if err != nil {
		t.Fatalf("budget %d, %q: %v", budget, q, err)
	}
	infos, err := w.ms.FS().ListRecursive(ctx.ScratchDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("budget %d, %q: leaked scratch files: %v", budget, q, infos)
	}
	return rows, ctx.Mem
}

// TestAggAndJoinSpillMatchesInMemory runs aggregation and join queries
// with a budget far below their working set and requires results identical
// to the ungoverned run (sorted: hash-spill drains emit partition-at-a-
// time, and GROUP BY/join output order is unspecified without ORDER BY).
func TestAggAndJoinSpillMatchesInMemory(t *testing.T) {
	w := newTestWarehouse(t)
	// The columnar join table holds a build row in tens of bytes, so the
	// eight base sales rows sit under ShouldSpill's 256-byte floor: a third
	// partition makes every build here worth a flush.
	var more [][3]int64
	for i := int64(0); i < 96; i++ {
		more = append(more, [3]int64{1 + i%6, 1 + i%5, 100 * (1 + i%7)})
	}
	w.insertSales(3, more)
	queries := []struct {
		q      string
		budget int64
	}{
		{`SELECT ds, COUNT(*), SUM(price), AVG(qty) FROM sales GROUP BY ds`, 600},
		{`SELECT item_sk, COUNT(DISTINCT qty), MIN(price), MAX(price) FROM sales GROUP BY item_sk`, 600},
		{`SELECT category, SUM(price), COUNT(*) FROM sales, items
		   WHERE sales.item_sk = items.item_sk GROUP BY category`, 600},
		{`SELECT name, qty FROM items LEFT JOIN sales ON items.item_sk = sales.item_sk`, 600},
		{`SELECT name FROM items WHERE EXISTS (SELECT 1 FROM sales WHERE sales.item_sk = items.item_sk)`, 600},
		// The filtered anti-join build is the smallest; a lower budget
		// still forces it to Grace-partition.
		{`SELECT name FROM items WHERE NOT EXISTS (SELECT 1 FROM sales WHERE sales.item_sk = items.item_sk AND qty > 3)`, 200},
		{`SELECT name, qty FROM items RIGHT JOIN sales ON items.item_sk = sales.item_sk`, 600},
		{`SELECT name, qty FROM items FULL JOIN sales ON items.item_sk = sales.item_sk`, 600},
	}
	for _, c := range queries {
		want, free := w.budgetedRun(t, c.q, 0)
		if free.SpilledBytes() != 0 {
			t.Fatalf("%q: unlimited run spilled", c.q)
		}
		got, gov := w.budgetedRun(t, c.q, c.budget)
		if gov.SpilledBytes() == 0 {
			t.Errorf("%q: budget %dB did not spill", c.q, c.budget)
		}
		if !reflect.DeepEqual(sorted(got), sorted(want)) {
			t.Errorf("%q: budgeted results diverge\n got %v\nwant %v", c.q, got, want)
		}
	}
}

// TestLimitOffset covers the operator-level OFFSET contract, including an
// offset past end of result.
func TestLimitOffset(t *testing.T) {
	w := newTestWarehouse(t)
	all := w.mustRun(`SELECT item_sk, ds FROM sales ORDER BY item_sk, ds`)
	cases := []struct {
		q    string
		want []string
	}{
		{`SELECT item_sk, ds FROM sales ORDER BY item_sk, ds LIMIT 3 OFFSET 2`, all[2:5]},
		{`SELECT item_sk, ds FROM sales ORDER BY item_sk, ds LIMIT 100 OFFSET 6`, all[6:]},
		{`SELECT item_sk, ds FROM sales ORDER BY item_sk, ds LIMIT 5 OFFSET 100`, nil},
		{`SELECT item_sk, ds FROM sales ORDER BY item_sk, ds LIMIT 0 OFFSET 2`, nil},
	}
	for _, c := range cases {
		got := w.mustRun(c.q)
		if !reflect.DeepEqual(got, append([]string{}, c.want...)) {
			t.Errorf("%q: got %v want %v", c.q, got, c.want)
		}
	}
	// Unfused LIMIT ... OFFSET (no ORDER BY): row count contract only.
	if got := w.mustRun(`SELECT item_sk FROM sales LIMIT 3 OFFSET 6`); len(got) != 2 {
		t.Errorf("LIMIT 3 OFFSET 6 over 8 rows: got %d rows", len(got))
	}
	if got := w.mustRun(`SELECT item_sk FROM sales LIMIT 3 OFFSET 20`); len(got) != 0 {
		t.Errorf("OFFSET past end: got %d rows", len(got))
	}
}

// TestAggSpillGroupingSets exercises the spilled drain with grouping sets:
// the grouping id must survive the group codec round trip.
func TestAggSpillGroupingSets(t *testing.T) {
	w := newTestWarehouse(t)
	q := `SELECT ds, count(*) AS c FROM sales GROUP BY GROUPING SETS ((ds), ()) ORDER BY c, ds`
	want, _ := w.budgetedRun(t, q, 0)
	got, gov := w.budgetedRun(t, q, 600)
	if gov.SpilledBytes() == 0 {
		t.Fatal("expected grouping-sets aggregation to spill at 600B")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grouping sets under budget: got %v want %v", got, want)
	}
}

// runWith is run with a caller-supplied context (budgeted tests).
func (w *testWarehouse) runWith(ctx *Context, q string) ([]string, error) {
	rel, err := w.analyzeSQL(q)
	if err != nil {
		return nil, err
	}
	comp := &Compiler{Ctx: ctx, MakeScan: w.makeScan(ctx)}
	op, err := comp.Compile(rel)
	if err != nil {
		return nil, err
	}
	rows, err := Drain(op)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out, nil
}
