package exec

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/acid"
	"repro/internal/analyze"
	"repro/internal/metastore"
	"repro/internal/orc"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// runDOP executes a query like testWarehouse.run but parallelizes the
// physical tree at the given degree first.
func (w *testWarehouse) runDOP(q string, dop int) ([]string, error) {
	st, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	rel, err := analyze.New(w.ms, "default").AnalyzeSelect(st.(*sql.SelectStmt))
	if err != nil {
		return nil, err
	}
	ctx := NewContext()
	ctx.DOP = dop
	comp := &Compiler{Ctx: ctx, MakeScan: w.makeScan(ctx)}
	op, err := comp.Compile(rel)
	if err != nil {
		return nil, err
	}
	op, _ = Parallelize(op, ctx, dop)
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

// TestParallelMatchesSerial runs a spread of scan/filter/agg/join shapes at
// several degrees of parallelism and requires the same multiset of rows as
// serial execution.
func TestParallelMatchesSerial(t *testing.T) {
	w := newTestWarehouse(t)
	queries := []string{
		`SELECT item_sk, qty FROM sales`,
		`SELECT item_sk, qty FROM sales WHERE qty > 1`,
		`SELECT ds, COUNT(*), SUM(qty), AVG(qty), MIN(price), MAX(price) FROM sales GROUP BY ds`,
		`SELECT item_sk, SUM(qty) FROM sales GROUP BY item_sk`,
		`SELECT COUNT(*), SUM(price) FROM sales`,
		`SELECT COUNT(DISTINCT item_sk) FROM sales`,
		`SELECT category, SUM(s.qty * s.price) FROM sales s, items i
		   WHERE s.item_sk = i.item_sk GROUP BY category`,
		`SELECT s.item_sk, i.category FROM sales s LEFT JOIN items i
		   ON s.item_sk = i.item_sk AND i.category = 'Sports'`,
		`SELECT item_sk FROM sales WHERE EXISTS
		   (SELECT 1 FROM items WHERE items.item_sk = sales.item_sk AND category = 'Books')`,
		`SELECT item_sk FROM sales WHERE NOT EXISTS
		   (SELECT 1 FROM items WHERE items.item_sk = sales.item_sk AND category = 'Books')`,
		`SELECT ds, item_sk, SUM(qty) FROM sales GROUP BY ROLLUP (ds, item_sk)`,
	}
	for _, q := range queries {
		want, err := w.run(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		sort.Strings(want)
		for _, dop := range []int{2, 4, 7} {
			got, err := w.runDOP(q, dop)
			if err != nil {
				t.Fatalf("dop=%d %s: %v", dop, q, err)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("dop=%d %s:\n got %v\nwant %v", dop, q, got, want)
			}
		}
	}
}

// salesScan builds a ScanOp over every partition of the sales table.
func (w *testWarehouse) salesScan(ctx *Context) *ScanOp {
	w.t.Helper()
	tbl, _ := w.ms.GetTable("default", "sales")
	tm := w.ms.Txns()
	valid := tm.GetValidWriteIds(tbl.FullName(), tm.GetSnapshot())
	var splits []TableSplit
	for _, p := range w.ms.PartitionsOf(tbl) {
		d, err := types.Cast(types.NewString(p.Values[0]), tbl.PartKeys[0].Type)
		if err != nil {
			w.t.Fatal(err)
		}
		splits = append(splits, TableSplit{Loc: p.Location, PartValues: []types.Datum{d}, Valid: valid})
	}
	return &ScanOp{FS: w.ms.FS(), Table: tbl, Cols: []int{0, 1}, Splits: splits, Ctx: ctx}
}

// TestParallelOpExchange drives the generic exchange directly: workers
// sharing a morsel queue must emit every split exactly once.
func TestParallelOpExchange(t *testing.T) {
	w := newTestWarehouse(t)
	ctx := NewContext()
	scan := w.salesScan(ctx)
	par, changed := Parallelize(scan, ctx, 4)
	if !changed {
		t.Fatal("Parallelize reported no change for a multi-split scan")
	}
	pop, ok := par.(*ParallelOp)
	if !ok {
		t.Fatalf("expected ParallelOp, got %T", par)
	}
	// Stripe expansion turns the two partition splits (two stripes each,
	// StripeRows=2) into four stripe-granular morsels, so DOP 4 gets its
	// full worker fan-out instead of being capped at the partition count.
	if len(pop.Workers) != 4 {
		t.Fatalf("expected 4 workers, got %d", len(pop.Workers))
	}
	rows, err := Drain(pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("expected 8 rows, got %d", len(rows))
	}
}

// TestParallelHashAggTwoPhase checks the partial/merge path against known
// group results, including AVG and DISTINCT whose states must merge, not
// their results.
func TestParallelHashAggTwoPhase(t *testing.T) {
	w := newTestWarehouse(t)
	got, err := w.runDOP(`SELECT ds, AVG(qty), COUNT(DISTINCT item_sk) FROM sales GROUP BY ds`, 4)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{"1|2.25|4", "2|2.5|4"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestVectorHashCrossKind ensures the vectorized key hash agrees across
// numeric representations that compare equal, so joins between INT,
// DOUBLE and DECIMAL keys keep finding their partners.
func TestVectorHashCrossKind(t *testing.T) {
	iv := vector.New(types.TBigint, 1)
	iv.I64[0] = 3
	dv := vector.New(types.TDouble, 1)
	dv.F64[0] = 3.0
	cv := vector.New(types.TDecimal(7, 2), 1)
	cv.I64[0] = 300 // 3.00
	hi, hd, hc := iv.HashAt(0), dv.HashAt(0), cv.HashAt(0)
	if hi != hd || hi != hc {
		t.Fatalf("hashes differ: int=%x double=%x decimal=%x", hi, hd, hc)
	}
	sv := vector.New(types.TString, 2)
	sv.Str[0], sv.Str[1] = "a", "b"
	if sv.HashAt(0) == sv.HashAt(1) {
		t.Fatal("distinct strings hash equal")
	}
	nv := vector.New(types.TBigint, 1)
	nv.SetNull(0)
	if nv.HashAt(0) != vector.NullHash {
		t.Fatal("null hash mismatch")
	}
}

// TestParallelEarlyClose pulls only part of an exchange's output through
// a LIMIT and closes; workers blocked on the bounded channel must unwind
// without hanging or leaking.
func TestParallelEarlyClose(t *testing.T) {
	w := newTestWarehouse(t)
	for _, q := range []string{
		`SELECT item_sk FROM sales LIMIT 3`,
		`SELECT item_sk FROM sales WHERE qty >= 1 LIMIT 1`,
	} {
		rows, err := w.runDOP(q, 4)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := 3
		if strings.Contains(q, "LIMIT 1") {
			want = 1
		}
		if len(rows) != want {
			t.Fatalf("%s: got %d rows, want %d", q, len(rows), want)
		}
	}
}

// TestStripeGranularParallelScanACID builds an unpartitioned ACID table —
// one directory split, which PR 1's whole-directory morsels scanned
// serially — with live delete deltas, and checks that the stripe-granular
// parallel scan fans out across workers yet returns row-identical results
// to the serial scan. Run under -race: all workers share one snapshot's
// delete set and one morsel queue.
func TestStripeGranularParallelScanACID(t *testing.T) {
	w := newTestWarehouse(t)
	tbl := &metastore.Table{
		DB: "default", Name: "events",
		Cols: []metastore.Column{
			{Name: "id", Type: types.TBigint},
			{Name: "v", Type: types.TInt},
		},
	}
	if err := w.ms.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	tbl, _ = w.ms.GetTable("default", "events")
	tm := w.ms.Txns()
	cols := []orc.Column{{Name: "id", Type: types.TBigint}, {Name: "v", Type: types.TInt}}
	// Several insert transactions with small stripes: many stripe morsels.
	next := int64(0)
	for _, n := range []int{37, 23, 1, 40} {
		id := tm.Begin()
		wid, _ := tm.AllocateWriteId(id, tbl.FullName())
		iw := acid.NewInsertWriter(w.ms.FS(), tbl.Location, wid, 0, cols, orc.WriterOptions{StripeRows: 8})
		for i := 0; i < n; i++ {
			if err := iw.WriteRow([]types.Datum{types.NewBigint(next), types.NewInt(int32(next % 7))}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := iw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tm.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	// Live delete delta: drop every id divisible by 9.
	valid := tm.GetValidWriteIds(tbl.FullName(), tm.GetSnapshot())
	snap, err := acid.OpenSnapshot(w.ms.FS(), tbl.Location, cols, valid)
	if err != nil {
		t.Fatal(err)
	}
	var doomed []acid.RowKey
	snap.Scan([]int{acid.MetaWriteID, acid.MetaFileID, acid.MetaRowID, acid.NumMetaCols}, nil,
		func(b *vector.Batch) error {
			for i := 0; i < b.N; i++ {
				r := b.RowIdx(i)
				if b.Cols[3].I64[r]%9 == 0 {
					doomed = append(doomed, acid.RowKey{
						WriteID: b.Cols[0].I64[r], FileID: b.Cols[1].I64[r], RowID: b.Cols[2].I64[r],
					})
				}
			}
			return nil
		})
	id := tm.Begin()
	wid, _ := tm.AllocateWriteId(id, tbl.FullName())
	dw := acid.NewDeleteWriter(w.ms.FS(), tbl.Location, wid, 0)
	for _, k := range doomed {
		dw.Delete(k)
	}
	dw.Close()
	tm.Commit(id)

	serialScan := func() *ScanOp {
		return &ScanOp{FS: w.ms.FS(), Table: tbl, Cols: []int{0, 1}, Splits: w.splitsOf(tbl)}
	}
	want, err := Drain(serialScan())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 101-12 { // 101 rows minus ids 0,9,...,99
		t.Fatalf("serial scan returned %d rows", len(want))
	}
	render := func(rows [][]types.Datum) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r[0].String() + "|" + r[1].String()
		}
		sort.Strings(out)
		return out
	}
	wantR := render(want)
	for _, target := range []int{1, 3} {
		for _, dop := range []int{2, 4, 8} {
			ctx := NewContext()
			ctx.TargetStripes = target
			scan := serialScan()
			scan.Ctx = ctx
			par, changed := Parallelize(scan, ctx, dop)
			if !changed {
				t.Fatalf("target=%d dop=%d: unpartitioned scan stayed serial", target, dop)
			}
			// The planner must have refined the single directory split into
			// stripe-granular morsels sharing one snapshot.
			if scan.Shared == nil {
				t.Fatalf("target=%d dop=%d: scan has no shared morsel queue", target, dop)
			}
			if len(scan.Shared.splits) < 2 {
				t.Fatalf("target=%d dop=%d: only %d morsels", target, dop, len(scan.Shared.splits))
			}
			for _, sp := range scan.Shared.splits {
				if sp.File == "" || sp.Snap == nil {
					t.Fatalf("target=%d dop=%d: split %+v is not stripe-granular", target, dop, sp)
				}
			}
			got, err := Drain(par)
			if err != nil {
				t.Fatal(err)
			}
			if gotR := render(got); !reflect.DeepEqual(gotR, wantR) {
				t.Errorf("target=%d dop=%d: parallel rows differ\n got %v\nwant %v", target, dop, gotR, wantR)
			}
		}
	}
}

// TestSplitQueueSteal checks the morsel dispenser hands out each split
// exactly once across many concurrent takers.
func TestSplitQueueSteal(t *testing.T) {
	splits := make([]TableSplit, 100)
	for i := range splits {
		splits[i].Loc = fmt.Sprintf("/s%d", i)
	}
	q := NewSplitQueue(splits)
	taken := make(chan string, len(splits))
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			for {
				s, ok := q.take(nil)
				if !ok {
					done <- struct{}{}
					return
				}
				taken <- s.Loc
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	close(taken)
	seen := map[string]bool{}
	for loc := range taken {
		if seen[loc] {
			t.Fatalf("split %s taken twice", loc)
		}
		seen[loc] = true
	}
	if len(seen) != len(splits) {
		t.Fatalf("took %d splits, want %d", len(seen), len(splits))
	}
}
