package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/acid"
	"repro/internal/analyze"
	"repro/internal/dfs"
	"repro/internal/metastore"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// testWarehouse sets up a small catalog with ACID data:
//
//	sales(item_sk BIGINT, qty INT, price DECIMAL(7,2)) PARTITIONED BY (ds INT)
//	items(item_sk BIGINT, category STRING, name STRING)
type testWarehouse struct {
	ms *metastore.Metastore
	t  *testing.T
}

func newTestWarehouse(t *testing.T) *testWarehouse {
	t.Helper()
	ms := metastore.New(dfs.New(), "/wh")
	w := &testWarehouse{ms: ms, t: t}
	if err := ms.CreateTable(&metastore.Table{
		DB: "default", Name: "sales",
		Cols: []metastore.Column{
			{Name: "item_sk", Type: types.TBigint},
			{Name: "qty", Type: types.TInt},
			{Name: "price", Type: types.TDecimal(7, 2)},
		},
		PartKeys: []metastore.Column{{Name: "ds", Type: types.TInt}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ms.CreateTable(&metastore.Table{
		DB: "default", Name: "items",
		Cols: []metastore.Column{
			{Name: "item_sk", Type: types.TBigint},
			{Name: "category", Type: types.TString},
			{Name: "name", Type: types.TString},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Partition ds=1: items 1..4; ds=2: items 3..6.
	w.insertSales(1, [][3]int64{{1, 2, 500}, {2, 1, 1000}, {3, 5, 250}, {4, 1, 750}})
	w.insertSales(2, [][3]int64{{3, 2, 250}, {4, 4, 750}, {5, 1, 1250}, {6, 3, 2000}})
	w.insertItems([][2]string{
		{"1", "Sports"}, {"2", "Books"}, {"3", "Sports"},
		{"4", "Home"}, {"5", "Books"}, {"6", "Sports"},
	})
	return w
}

func (w *testWarehouse) insertSales(ds int, rows [][3]int64) {
	w.t.Helper()
	tbl, _ := w.ms.GetTable("default", "sales")
	part, err := w.ms.AddPartition("default", "sales", []string{fmt.Sprint(ds)})
	if err != nil {
		w.t.Fatal(err)
	}
	tm := w.ms.Txns()
	id := tm.Begin()
	wid, _ := tm.AllocateWriteId(id, tbl.FullName())
	iw := acid.NewInsertWriter(w.ms.FS(), part.Location, wid, 0, []orc.Column{
		{Name: "item_sk", Type: types.TBigint},
		{Name: "qty", Type: types.TInt},
		{Name: "price", Type: types.TDecimal(7, 2)},
	}, orc.WriterOptions{StripeRows: 2})
	for _, r := range rows {
		if err := iw.WriteRow([]types.Datum{
			types.NewBigint(r[0]), types.NewInt(int32(r[1])), types.NewDecimal(r[2], 2),
		}); err != nil {
			w.t.Fatal(err)
		}
	}
	if err := iw.Close(); err != nil {
		w.t.Fatal(err)
	}
	if err := tm.Commit(id); err != nil {
		w.t.Fatal(err)
	}
}

func (w *testWarehouse) insertItems(rows [][2]string) {
	w.t.Helper()
	tbl, _ := w.ms.GetTable("default", "items")
	tm := w.ms.Txns()
	id := tm.Begin()
	wid, _ := tm.AllocateWriteId(id, tbl.FullName())
	iw := acid.NewInsertWriter(w.ms.FS(), tbl.Location, wid, 0, []orc.Column{
		{Name: "item_sk", Type: types.TBigint},
		{Name: "category", Type: types.TString},
		{Name: "name", Type: types.TString},
	}, orc.WriterOptions{})
	for _, r := range rows {
		var sk int64
		fmt.Sscan(r[0], &sk)
		if err := iw.WriteRow([]types.Datum{
			types.NewBigint(sk), types.NewString(r[1]), types.NewString("item-" + r[0]),
		}); err != nil {
			w.t.Fatal(err)
		}
	}
	if err := iw.Close(); err != nil {
		w.t.Fatal(err)
	}
	if err := tm.Commit(id); err != nil {
		w.t.Fatal(err)
	}
}

// makeScan is the scan factory tests use: every partition becomes a split.
func (w *testWarehouse) makeScan(ctx *Context) func(s *plan.Scan) (Operator, error) {
	return func(s *plan.Scan) (Operator, error) {
		tm := w.ms.Txns()
		snap := tm.GetSnapshot()
		valid := tm.GetValidWriteIds(s.Table.FullName(), snap)
		var splits []TableSplit
		if len(s.Table.PartKeys) == 0 {
			splits = append(splits, TableSplit{Loc: s.Table.Location, Valid: valid})
		} else {
			for _, p := range w.ms.PartitionsOf(s.Table) {
				vals := make([]types.Datum, len(p.Values))
				for i, v := range p.Values {
					d, err := types.Cast(types.NewString(v), s.Table.PartKeys[i].Type)
					if err != nil {
						return nil, err
					}
					vals[i] = d
				}
				splits = append(splits, TableSplit{Loc: p.Location, PartValues: vals, Valid: valid})
			}
		}
		return &ScanOp{
			FS: w.ms.FS(), Table: s.Table, Cols: s.Cols, Meta: s.Meta,
			Splits: splits, Ctx: ctx,
		}, nil
	}
}

// analyzeSQL parses and analyzes a SELECT against the test catalog.
func (w *testWarehouse) analyzeSQL(q string) (plan.Rel, error) {
	st, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	return analyze.New(w.ms, "default").AnalyzeSelect(st.(*sql.SelectStmt))
}

// run executes a SQL query end to end and returns rows rendered as strings.
func (w *testWarehouse) run(q string) ([]string, error) {
	return w.runWith(NewContext(), q)
}

func (w *testWarehouse) mustRun(q string) []string {
	w.t.Helper()
	rows, err := w.run(q)
	if err != nil {
		w.t.Fatalf("run %q: %v", q, err)
	}
	return rows
}

func sorted(rows []string) []string {
	out := append([]string{}, rows...)
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func TestScanAndFilter(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun("SELECT item_sk, qty FROM sales WHERE ds = 1 AND qty > 1 ORDER BY item_sk")
	want := []string{"1|2", "3|5"}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestPartitionColumnProjection(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun("SELECT ds, count(*) FROM sales GROUP BY ds ORDER BY ds")
	want := []string{"1|4", "2|4"}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestJoinAggregation(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun(`SELECT category, SUM(qty * price) AS total
		FROM sales JOIN items ON sales.item_sk = items.item_sk
		GROUP BY category ORDER BY total DESC`)
	// Sports: items 1,3,6 -> 2*5.00 + 5*2.50 + 2*2.50 + 3*20.00 = 10+12.5+5+60 = 87.50
	// Home: item 4 -> 1*7.50 + 4*7.50 = 37.50
	// Books: items 2,5 -> 1*10.00 + 1*12.50 = 22.50
	want := []string{"Sports|87.50", "Home|37.50", "Books|22.50"}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestLeftOuterJoinProducesNulls(t *testing.T) {
	w := newTestWarehouse(t)
	// items 2 and 5 have sales only via Books; delete-free check with an
	// item that has no sales at all: add item 99.
	w.insertItems([][2]string{{"99", "Ghost"}})
	rows := w.mustRun(`SELECT items.item_sk, sales.qty FROM items
		LEFT OUTER JOIN sales ON items.item_sk = sales.item_sk
		WHERE items.item_sk = 99`)
	if len(rows) != 1 || rows[0] != "99|NULL" {
		t.Errorf("got %v", rows)
	}
}

func TestSemiAntiViaSubqueries(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun(`SELECT DISTINCT category FROM items
		WHERE item_sk IN (SELECT item_sk FROM sales WHERE ds = 1) ORDER BY category`)
	if !reflect.DeepEqual(rows, []string{"Books", "Home", "Sports"}) {
		t.Errorf("IN: %v", rows)
	}
	rows = w.mustRun(`SELECT item_sk FROM items
		WHERE item_sk NOT IN (SELECT item_sk FROM sales) ORDER BY item_sk`)
	if len(rows) != 0 {
		t.Errorf("NOT IN should be empty, got %v", rows)
	}
	rows = w.mustRun(`SELECT i.item_sk FROM items i
		WHERE NOT EXISTS (SELECT 1 FROM sales s WHERE s.item_sk = i.item_sk AND s.ds = 2)
		ORDER BY i.item_sk`)
	if !reflect.DeepEqual(rows, []string{"1", "2"}) {
		t.Errorf("NOT EXISTS: %v", rows)
	}
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun(`SELECT i.item_sk FROM items i
		WHERE 2 < (SELECT SUM(s.qty) FROM sales s WHERE s.item_sk = i.item_sk)
		ORDER BY i.item_sk`)
	// qty sums: 1->2, 2->1, 3->7, 4->5, 5->1, 6->3.
	if !reflect.DeepEqual(rows, []string{"3", "4", "6"}) {
		t.Errorf("got %v", rows)
	}
}

func TestScalarSubqueryCardinalityGuard(t *testing.T) {
	w := newTestWarehouse(t)
	_, err := w.run("SELECT (SELECT item_sk FROM items) FROM items")
	if err == nil || !strings.Contains(err.Error(), "more than one row") {
		t.Errorf("expected cardinality error, got %v", err)
	}
}

func TestSetOperations(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun(`SELECT item_sk FROM sales WHERE ds = 1
		INTERSECT SELECT item_sk FROM sales WHERE ds = 2 ORDER BY item_sk`)
	if !reflect.DeepEqual(rows, []string{"3", "4"}) {
		t.Errorf("intersect: %v", rows)
	}
	rows = w.mustRun(`SELECT item_sk FROM sales WHERE ds = 1
		EXCEPT SELECT item_sk FROM sales WHERE ds = 2 ORDER BY item_sk`)
	if !reflect.DeepEqual(rows, []string{"1", "2"}) {
		t.Errorf("except: %v", rows)
	}
	rows = w.mustRun(`SELECT item_sk FROM sales WHERE ds = 1
		UNION SELECT item_sk FROM sales WHERE ds = 2`)
	if len(rows) != 6 {
		t.Errorf("union distinct: %v", rows)
	}
	rows = w.mustRun(`SELECT item_sk FROM sales UNION ALL SELECT item_sk FROM sales`)
	if len(rows) != 16 {
		t.Errorf("union all: %d rows", len(rows))
	}
}

func TestGroupingSetsExecution(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun(`SELECT ds, count(*) AS c FROM sales
		GROUP BY GROUPING SETS ((ds), ()) ORDER BY c, ds`)
	// (ds=1,4), (ds=2,4), (NULL,8)
	if !reflect.DeepEqual(sorted(rows), sorted([]string{"1|4", "2|4", "NULL|8"})) {
		t.Errorf("grouping sets: %v", rows)
	}
}

func TestWindowExecution(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun(`SELECT item_sk, rank() OVER (PARTITION BY ds ORDER BY price DESC) AS r
		FROM sales WHERE ds = 1 ORDER BY r, item_sk`)
	// prices ds=1: item2=10.00, item4=7.50, item1=5.00, item3=2.50
	want := []string{"2|1", "4|2", "1|3", "3|4"}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rank: %v", rows)
	}
	rows = w.mustRun(`SELECT item_sk, SUM(qty) OVER (PARTITION BY ds ORDER BY item_sk) AS running
		FROM sales WHERE ds = 2 ORDER BY item_sk`)
	want = []string{"3|2", "4|6", "5|7", "6|10"}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("running sum: %v", rows)
	}
}

func TestHavingAndDistinctAggregates(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun(`SELECT category, COUNT(DISTINCT items.item_sk) AS n
		FROM items JOIN sales ON items.item_sk = sales.item_sk
		GROUP BY category HAVING COUNT(DISTINCT items.item_sk) > 1
		ORDER BY category`)
	if !reflect.DeepEqual(rows, []string{"Books|2", "Sports|3"}) {
		t.Errorf("got %v", rows)
	}
}

func TestCaseAndLike(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun(`SELECT name, CASE WHEN category = 'Sports' THEN 'S' ELSE 'O' END
		FROM items WHERE name LIKE 'item-_' AND category LIKE '%oo%' ORDER BY name`)
	if !reflect.DeepEqual(rows, []string{"item-2|O", "item-5|O"}) {
		t.Errorf("got %v", rows)
	}
}

func TestLimitAndTopN(t *testing.T) {
	w := newTestWarehouse(t)
	rows := w.mustRun("SELECT item_sk FROM sales ORDER BY price DESC, item_sk LIMIT 3")
	if !reflect.DeepEqual(rows, []string{"6", "5", "2"}) {
		t.Errorf("topn: %v", rows)
	}
}

func TestDeleteVisibilityThroughQuery(t *testing.T) {
	w := newTestWarehouse(t)
	// Delete item_sk=3 rows from partition ds=1 via the ACID layer.
	tbl, _ := w.ms.GetTable("default", "sales")
	part, _ := w.ms.AddPartition("default", "sales", []string{"1"})
	tm := w.ms.Txns()
	valid := tm.GetValidWriteIds(tbl.FullName(), tm.GetSnapshot())
	snap, err := acid.OpenSnapshot(w.ms.FS(), part.Location, []orc.Column{
		{Name: "item_sk", Type: types.TBigint},
		{Name: "qty", Type: types.TInt},
		{Name: "price", Type: types.TDecimal(7, 2)},
	}, valid)
	if err != nil {
		t.Fatal(err)
	}
	var keys []acid.RowKey
	snap.Scan([]int{acid.MetaWriteID, acid.MetaFileID, acid.MetaRowID, acid.NumMetaCols}, nil,
		func(b *vector.Batch) error {
			for i := 0; i < b.N; i++ {
				r := b.RowIdx(i)
				if b.Cols[3].I64[r] == 3 {
					keys = append(keys, acid.RowKey{
						WriteID: b.Cols[0].I64[r], FileID: b.Cols[1].I64[r], RowID: b.Cols[2].I64[r],
					})
				}
			}
			return nil
		})
	id := tm.Begin()
	wid, _ := tm.AllocateWriteId(id, tbl.FullName())
	dw := acid.NewDeleteWriter(w.ms.FS(), part.Location, wid, 0)
	for _, k := range keys {
		dw.Delete(k)
	}
	dw.Close()
	tm.Commit(id)

	rows := w.mustRun("SELECT item_sk FROM sales WHERE ds = 1 ORDER BY item_sk")
	if !reflect.DeepEqual(rows, []string{"1", "2", "4"}) {
		t.Errorf("after delete: %v", rows)
	}
}

func TestRuntimeFilterScanPruning(t *testing.T) {
	w := newTestWarehouse(t)
	ctx := NewContext()
	f := ctx.RegisterFilter(1)
	f.Min = types.NewBigint(3)
	f.Max = types.NewBigint(3)
	f.Bloom = NewBloom(8)
	f.Bloom.Add(types.NewBigint(3).Hash())
	f.Publish()
	tbl, _ := w.ms.GetTable("default", "sales")
	scan := &ScanOp{
		FS: w.ms.FS(), Table: tbl, Cols: []int{0},
		Splits: w.splitsOf(tbl), Ctx: ctx,
		RF: []RuntimeFilterBind{{FilterID: 1, OutCol: 0}},
	}
	rows, err := Drain(scan)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[0].I != 3 {
			t.Errorf("runtime filter leaked %v", r[0])
		}
	}
	if len(rows) != 2 {
		t.Errorf("expected 2 rows for item 3, got %d", len(rows))
	}
}

func (w *testWarehouse) splitsOf(tbl *metastore.Table) []TableSplit {
	tm := w.ms.Txns()
	valid := tm.GetValidWriteIds(tbl.FullName(), tm.GetSnapshot())
	var splits []TableSplit
	if len(tbl.PartKeys) == 0 {
		return []TableSplit{{Loc: tbl.Location, Valid: valid}}
	}
	for _, p := range w.ms.PartitionsOf(tbl) {
		vals := make([]types.Datum, len(p.Values))
		for i, v := range p.Values {
			vals[i], _ = types.Cast(types.NewString(v), tbl.PartKeys[i].Type)
		}
		splits = append(splits, TableSplit{Loc: p.Location, PartValues: vals, Valid: valid})
	}
	return splits
}

func TestDynamicPartitionPruning(t *testing.T) {
	w := newTestWarehouse(t)
	ctx := NewContext()
	f := ctx.RegisterFilter(7)
	f.Values = []types.Datum{types.NewInt(2)}
	f.Publish()
	tbl, _ := w.ms.GetTable("default", "sales")
	scan := &ScanOp{
		FS: w.ms.FS(), Table: tbl, Cols: []int{0, 3}, // item_sk, ds
		Splits: w.splitsOf(tbl), Ctx: ctx,
		Prune: []PartPruneBind{{FilterID: 7, PartKey: 0}},
	}
	rows, err := Drain(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected only ds=2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 2 {
			t.Errorf("pruning leaked ds=%v", r[1])
		}
	}
}
