package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// rowsOp emits fixed rows in batches of a given size — a test stand-in for
// a worker pipeline. It counts lifecycle calls so tests can assert an input
// was (or was not) touched.
type rowsOp struct {
	ts    []types.T
	rows  [][]types.Datum
	batch int

	pos   int
	opens int
	nexts int
	errAt int // emit an error instead of the batch containing row errAt (0 = never)
}

func (r *rowsOp) Types() []types.T { return r.ts }

func (r *rowsOp) Open() error { r.opens++; r.pos = 0; return nil }

func (r *rowsOp) Next() (*vector.Batch, error) {
	r.nexts++
	if r.errAt > 0 && r.pos >= r.errAt {
		return nil, errors.New("rowsOp: injected failure")
	}
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	n := r.batch
	if n <= 0 {
		n = vector.BatchSize
	}
	if rem := len(r.rows) - r.pos; n > rem {
		n = rem
	}
	b := vector.NewBatch(r.ts, n)
	for i := 0; i < n; i++ {
		for c, d := range r.rows[r.pos+i] {
			b.Cols[c].Set(i, d)
		}
	}
	b.N = n
	r.pos += n
	return b, nil
}

func (r *rowsOp) Close() error { return nil }

var mergeTestTypes = []types.T{types.TBigint, types.TString, types.TBigint}

// randomRows builds rows of (nullable bigint, string, unique id) — the id
// makes multiset comparison exact even under heavy key duplication.
func randomRows(rng *rand.Rand, n int) [][]types.Datum {
	rows := make([][]types.Datum, n)
	for i := range rows {
		k := types.NewBigint(int64(rng.Intn(7)))
		if rng.Intn(5) == 0 {
			k = types.NullOf(types.Int64)
		}
		rows[i] = []types.Datum{
			k,
			types.NewString(string(rune('a' + rng.Intn(4)))),
			types.NewBigint(int64(i)),
		}
	}
	return rows
}

// sortLess and sortRows are the tests' reference order: the datum-level
// comparator under the standard library's stable sort, sharing nothing with
// the engine's index sort over column vectors.
func sortLess(keys []plan.SortKey) func(a, b []types.Datum) bool {
	cmp := sortCompare(keys)
	return func(a, b []types.Datum) bool { return cmp(a, b) < 0 }
}

func sortRows(rows [][]types.Datum, keys []plan.SortKey) {
	less := sortLess(keys)
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
}

func randomKeys(rng *rand.Rand) []plan.SortKey {
	keys := []plan.SortKey{{Col: 0, Desc: rng.Intn(2) == 0, NullsFirst: rng.Intn(2) == 0}}
	if rng.Intn(2) == 0 {
		keys = append(keys, plan.SortKey{Col: 1, Desc: rng.Intn(2) == 0})
	}
	return keys
}

func renderRow(r []types.Datum) string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = d.String()
	}
	return strings.Join(parts, "|")
}

// runMergeTrial partitions random rows into k pre-sorted runs, streams them
// through a MergeOp, and checks the output against sort.Slice ground truth:
// the merged stream must be a permutation of the input and nondecreasing
// under the key comparator. Shared by the fixed-seed test and the
// seed-randomized stress twin.
func runMergeTrial(t *testing.T, rng *rand.Rand) {
	t.Helper()
	rows := randomRows(rng, rng.Intn(120))
	keys := randomKeys(rng)
	less := sortLess(keys)
	k := 1 + rng.Intn(8)
	runs := make([][][]types.Datum, k)
	for _, r := range rows {
		w := rng.Intn(k)
		runs[w] = append(runs[w], r)
	}
	workers := make([]Operator, k)
	for w := range workers {
		sort.Slice(runs[w], func(i, j int) bool { return less(runs[w][i], runs[w][j]) })
		workers[w] = &rowsOp{ts: mergeTestTypes, rows: runs[w], batch: 1 + rng.Intn(4)}
	}
	m := &MergeOp{Workers: workers, Keys: keys}
	got, err := Drain(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("merged %d rows, want %d", len(got), len(rows))
	}
	var gotR, wantR []string
	for i, r := range got {
		if i > 0 && less(r, got[i-1]) {
			t.Fatalf("row %d out of order: %s after %s (keys %v)", i, renderRow(r), renderRow(got[i-1]), keys)
		}
		gotR = append(gotR, renderRow(r))
	}
	for _, r := range rows {
		wantR = append(wantR, renderRow(r))
	}
	sort.Strings(gotR)
	sort.Strings(wantR)
	if strings.Join(gotR, "\n") != strings.Join(wantR, "\n") {
		t.Fatalf("merged rows are not a permutation of the input\n got %v\nwant %v", gotR, wantR)
	}
}

// TestLoserTreeMergeProperty drives the k-way merge over randomized runs,
// batch sizes and key sets with a fixed seed (the seed-randomized variant
// runs under -tags stress, the hll pattern).
func TestLoserTreeMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		runMergeTrial(t, rng)
	}
}

// runTopNHeapTrial checks the bounded heap against stable-sort-and-truncate
// ground truth. The heap's arrival-order tie-breaking makes the comparison
// exact, not just key-equal.
func runTopNHeapTrial(t *testing.T, rng *rand.Rand) {
	t.Helper()
	rows := randomRows(rng, rng.Intn(100))
	keys := randomKeys(rng)
	n := int64(rng.Intn(20))
	h := newTopNHeap(keys, n, nil)
	if len(rows) > 0 {
		// One batch with a selection vector, so push compares in place on
		// physical rows that differ from the live ordinals.
		b := rowsBatch(append([][]types.Datum{rows[0]}, rows...), mergeTestTypes)
		b.Sel = make([]int, len(rows))
		for i := range b.Sel {
			b.Sel[i] = i + 1
		}
		b.N = len(rows)
		for i := 0; i < b.N; i++ {
			h.push(b, i)
		}
	}
	got := h.sorted()
	want := append([][]types.Datum{}, rows...)
	sortRows(want, keys)
	if int64(len(want)) > n {
		want = want[:n]
	}
	if len(got) != len(want) {
		t.Fatalf("heap kept %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if renderRow(got[i]) != renderRow(want[i]) {
			t.Fatalf("row %d: got %s want %s (keys %v, n %d)", i, renderRow(got[i]), renderRow(want[i]), keys, n)
		}
	}
}

// TestTopNHeapMatchesStableSort is the fixed-seed property test for the
// bounded heap behind TopNOp and ParallelTopNOp.
func TestTopNHeapMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		runTopNHeapTrial(t, rng)
	}
}

// TestMergeExchangeEarlyCloseNoLeak closes merges mid-stream — the LIMIT-
// satisfied path — over many small runs with tiny batches and verifies no
// worker goroutine outlives its operator. Runs under `make race`.
func TestMergeExchangeEarlyCloseNoLeak(t *testing.T) {
	keys := []plan.SortKey{{Col: 2}}
	before := runtime.NumGoroutine()
	for iter := 0; iter < 40; iter++ {
		workers := make([]Operator, 16)
		id := 0
		for w := range workers {
			rows := make([][]types.Datum, 200)
			for i := range rows {
				rows[i] = []types.Datum{
					types.NewBigint(int64(i % 3)), types.NewString("x"), types.NewBigint(int64(id)),
				}
				id++
			}
			workers[w] = &rowsOp{ts: mergeTestTypes, rows: rows, batch: 1}
		}
		m := &MergeOp{Workers: workers, Keys: keys}
		if err := m.Open(); err != nil {
			t.Fatal(err)
		}
		// Pull one batch (workers keep producing behind it), then bail —
		// also exercise close-before-first-Next on even iterations.
		if iter%2 == 0 {
			if b, err := m.Next(); err != nil || b == nil {
				t.Fatalf("iter %d: batch %v err %v", iter, b, err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Goroutines park asynchronously after Close returns from wg.Wait (it
	// returns when counters hit zero, which races the final stack frames),
	// so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMergeExchangeWorkerError verifies a failing run surfaces its error
// through the merge and unwinds the healthy workers.
func TestMergeExchangeWorkerError(t *testing.T) {
	keys := []plan.SortKey{{Col: 2}}
	ok := make([][]types.Datum, 50)
	for i := range ok {
		ok[i] = []types.Datum{types.NewBigint(1), types.NewString("x"), types.NewBigint(int64(i))}
	}
	workers := []Operator{
		&rowsOp{ts: mergeTestTypes, rows: ok, batch: 2},
		&rowsOp{ts: mergeTestTypes, rows: ok, batch: 2, errAt: 10},
		&rowsOp{ts: mergeTestTypes, rows: ok, batch: 2},
	}
	m := &MergeOp{Workers: workers, Keys: keys}
	_, err := Drain(m)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("expected injected failure, got %v", err)
	}
}

// TestMergeExchangeErrorBeforeBrokenPrefix pins the early-exit hazard: when
// the run holding the smallest keys dies mid-stream, the merge must surface
// the error at that run's premature end — NOT keep emitting the other runs'
// buffered rows, which a downstream LIMIT could accept as a (wrong) ordered
// prefix without ever reaching end-of-stream.
func TestMergeExchangeErrorBeforeBrokenPrefix(t *testing.T) {
	keys := []plan.SortKey{{Col: 2}}
	mkRows := func(lo, n int) [][]types.Datum {
		rows := make([][]types.Datum, n)
		for i := range rows {
			rows[i] = []types.Datum{types.NewBigint(0), types.NewString("x"), types.NewBigint(int64(lo + i))}
		}
		return rows
	}
	workers := []Operator{
		// Smallest keys live here; dies after 4 rows.
		&rowsOp{ts: mergeTestTypes, rows: mkRows(0, 50), batch: 2, errAt: 4},
		&rowsOp{ts: mergeTestTypes, rows: mkRows(100, 50), batch: 2},
		&rowsOp{ts: mergeTestTypes, rows: mkRows(200, 50), batch: 2},
	}
	m := &MergeOp{Workers: workers, Keys: keys}
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b, err := m.Next()
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("first Next after mid-run failure: batch %v err %v, want injected failure", b, err)
	}
}

// TestTopNZeroShortCircuits covers the N == 0 fix: serial and parallel TopN
// must report EOF without opening or draining their input.
func TestTopNZeroShortCircuits(t *testing.T) {
	keys := []plan.SortKey{{Col: 0}}
	in := &rowsOp{ts: mergeTestTypes, rows: randomRows(rand.New(rand.NewSource(1)), 10)}
	top := &TopNOp{Input: in, Keys: keys, N: 0}
	rows, err := Drain(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("TopN(0) emitted %d rows", len(rows))
	}
	if in.opens != 0 || in.nexts != 0 {
		t.Fatalf("TopN(0) touched its input: %d opens, %d nexts", in.opens, in.nexts)
	}
	in2 := &rowsOp{ts: mergeTestTypes, rows: randomRows(rand.New(rand.NewSource(2)), 10)}
	par := &ParallelTopNOp{Workers: []Operator{in2, in2}, Keys: keys, N: 0}
	rows, err = Drain(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("ParallelTopN(0) emitted %d rows", len(rows))
	}
	if in2.opens != 0 || in2.nexts != 0 {
		t.Fatalf("ParallelTopN(0) touched its input: %d opens, %d nexts", in2.opens, in2.nexts)
	}
}

// TestParallelizePlacesSortBelowExchange checks the planner rewrites: Sort
// over a clonable pipeline becomes a MergeOp whose workers are per-run
// sorts, TopN becomes a ParallelTopNOp and an unfused Limit-over-Sort gets
// the limit pushed into per-worker runs.
func TestParallelizePlacesSortBelowExchange(t *testing.T) {
	w := newTestWarehouse(t)
	keys := []plan.SortKey{{Col: 1}, {Col: 0, Desc: true}}

	ctx := NewContext()
	par, changed := Parallelize(&SortOp{Input: w.salesScan(ctx), Keys: keys}, ctx, 4)
	if !changed {
		t.Fatal("Parallelize left the sort serial")
	}
	m, ok := par.(*MergeOp)
	if !ok {
		t.Fatalf("expected MergeOp, got %T", par)
	}
	for _, wk := range m.Workers {
		if _, ok := wk.(*SortOp); !ok {
			t.Fatalf("merge worker is %T, want per-run *SortOp", wk)
		}
	}

	ctx = NewContext()
	par, _ = Parallelize(&TopNOp{Input: w.salesScan(ctx), Keys: keys, N: 3}, ctx, 4)
	if _, ok := par.(*ParallelTopNOp); !ok {
		t.Fatalf("expected ParallelTopNOp, got %T", par)
	}

	ctx = NewContext()
	par, _ = Parallelize(&LimitOp{Input: &SortOp{Input: w.salesScan(ctx), Keys: keys}, N: 3}, ctx, 4)
	ptop, ok := par.(*ParallelTopNOp)
	if !ok {
		t.Fatalf("expected ParallelTopNOp for Limit over Sort, got %T", par)
	}
	if ptop.N != 3 {
		t.Fatalf("limit not pushed into runs: N = %d", ptop.N)
	}
}

// TestParallelOrderByOrderedMatchesSerial runs ORDER BY / TopN queries at
// several DOPs and requires output identical to serial *in order*, not just
// as a multiset (sort keys are unique per row, so ties cannot mask run-
// interleaving differences).
func TestParallelOrderByOrderedMatchesSerial(t *testing.T) {
	w := newTestWarehouse(t)
	queries := []string{
		`SELECT item_sk, ds, qty FROM sales ORDER BY item_sk, ds`,
		`SELECT item_sk, ds, price FROM sales ORDER BY price DESC, item_sk DESC, ds`,
		`SELECT item_sk, ds FROM sales ORDER BY qty, item_sk, ds`,
		`SELECT item_sk, ds FROM sales ORDER BY item_sk DESC, ds LIMIT 3`,
		`SELECT item_sk, ds, qty FROM sales ORDER BY qty DESC, item_sk, ds LIMIT 5`,
		`SELECT category, COUNT(*) FROM sales s, items i WHERE s.item_sk = i.item_sk
		   GROUP BY category ORDER BY category`,
	}
	for _, q := range queries {
		want, err := w.run(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		for _, dop := range []int{2, 4, 8} {
			got, err := w.runDOP(q, dop)
			if err != nil {
				t.Fatalf("dop=%d %s: %v", dop, q, err)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("dop=%d %s: ordered output diverges\n got %v\nwant %v", dop, q, got, want)
			}
		}
	}
}

// TestMergeExchangeManyRuns merges more runs than executor-slot tests
// usually reach, crossing the power-of-two padding boundaries of the loser
// tree (k = 1, 2, 3, ..., 17).
func TestMergeExchangeManyRuns(t *testing.T) {
	keys := []plan.SortKey{{Col: 2}}
	for k := 1; k <= 17; k++ {
		var workers []Operator
		var all []string
		for wi := 0; wi < k; wi++ {
			var rows [][]types.Datum
			for i := wi; i < 100; i += k {
				row := []types.Datum{types.NewBigint(0), types.NewString("x"), types.NewBigint(int64(i))}
				rows = append(rows, row)
			}
			workers = append(workers, &rowsOp{ts: mergeTestTypes, rows: rows, batch: 3})
		}
		for i := 0; i < 100; i++ {
			all = append(all, fmt.Sprintf("0|x|%d", i))
		}
		m := &MergeOp{Workers: workers, Keys: keys}
		got, err := Drain(m)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		var gotR []string
		for _, r := range got {
			gotR = append(gotR, renderRow(r))
		}
		if strings.Join(gotR, ",") != strings.Join(all, ",") {
			t.Fatalf("k=%d: merged stream wrong\n got %v", k, gotR)
		}
	}
}
