package opt

import (
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/hll"
	"repro/internal/metastore"
	"repro/internal/plan"
	"repro/internal/types"
)

func catalog(t *testing.T) *metastore.Metastore {
	t.Helper()
	ms := metastore.New(dfs.New(), "/wh")
	fact := &metastore.Table{
		DB: "default", Name: "fact",
		Cols: []metastore.Column{
			{Name: "f_key", Type: types.TBigint},
			{Name: "f_val", Type: types.TDouble},
		},
		PartKeys: []metastore.Column{{Name: "f_day", Type: types.TInt}},
	}
	dim := &metastore.Table{
		DB: "default", Name: "dim",
		Cols: []metastore.Column{
			{Name: "d_key", Type: types.TBigint},
			{Name: "d_cat", Type: types.TString},
		},
	}
	other := &metastore.Table{
		DB: "default", Name: "other",
		Cols: []metastore.Column{{Name: "o_key", Type: types.TBigint}},
	}
	for _, tbl := range []*metastore.Table{fact, dim, other} {
		if err := ms.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	setRows := func(name string, rows int64, col string, ndv int) {
		cs := &metastore.ColStats{NDV: hll.New()}
		for i := 0; i < ndv; i++ {
			cs.NDV.Add(types.NewBigint(int64(i)).Hash())
		}
		ms.SetStats("default."+name, &metastore.TableStats{
			RowCount: rows, Cols: map[string]*metastore.ColStats{col: cs},
		})
	}
	setRows("fact", 100000, "f_key", 1000)
	setRows("dim", 100, "d_key", 100)
	setRows("other", 50, "o_key", 50)
	return ms
}

func scanOf(ms *metastore.Metastore, t *testing.T, name string) *plan.Scan {
	tbl, err := ms.GetTable("default", name)
	if err != nil {
		t.Fatal(err)
	}
	return plan.NewScan(tbl, name)
}

func eq(l, r plan.Rex) plan.Rex { return plan.NewFunc("=", types.TBool, l, r) }
func col(i int, t types.T) *plan.ColRef {
	return &plan.ColRef{Idx: i, T: t}
}

func TestJoinConditionPushConvertsCrossToHashJoin(t *testing.T) {
	ms := catalog(t)
	o := New(ms, AllOn())
	// FROM fact, dim WHERE f_key = d_key AND d_cat = 'x'
	cross := &plan.Join{Kind: plan.Cross, Left: scanOf(ms, t, "fact"), Right: scanOf(ms, t, "dim")}
	cond := plan.AndAll([]plan.Rex{
		eq(col(0, types.TBigint), col(3, types.TBigint)),
		eq(col(4, types.TString), plan.NewLiteral(types.NewString("x"))),
	})
	rel := o.Optimize(&plan.Filter{Input: cross, Cond: cond})
	s := plan.Explain(rel)
	if !strings.Contains(s, "Join[inner]") {
		t.Errorf("cross join not converted:\n%s", s)
	}
	if !strings.Contains(s, "filter=[") {
		t.Errorf("dimension filter not pushed into scan:\n%s", s)
	}
}

func TestConstantFolding(t *testing.T) {
	ms := catalog(t)
	o := New(ms, AllOn())
	// WHERE 1 + 1 = 2 folds away entirely.
	cond := eq(
		plan.NewFunc("+", types.TBigint, plan.NewLiteral(types.NewBigint(1)), plan.NewLiteral(types.NewBigint(1))),
		plan.NewLiteral(types.NewBigint(2)),
	)
	rel := o.Optimize(&plan.Filter{Input: scanOf(ms, t, "dim"), Cond: cond})
	if _, ok := rel.(*plan.Scan); !ok {
		t.Errorf("tautological filter survived:\n%s", plan.Explain(rel))
	}
}

func TestColumnPruningNarrowsScan(t *testing.T) {
	ms := catalog(t)
	o := New(ms, AllOn())
	scan := scanOf(ms, t, "fact") // 3 columns
	proj := &plan.Project{
		Input: scan,
		Exprs: []plan.Rex{col(1, types.TDouble)},
		Names: []string{"v"},
	}
	rel := o.Optimize(proj)
	var pruned *plan.Scan
	var find func(r plan.Rel)
	find = func(r plan.Rel) {
		if s, ok := r.(*plan.Scan); ok {
			pruned = s
		}
		for _, c := range r.Children() {
			find(c)
		}
	}
	find(rel)
	if pruned == nil || len(pruned.Cols) != 1 {
		t.Errorf("scan not pruned: %+v\n%s", pruned, plan.Explain(rel))
	}
}

func TestSemijoinReducerAnnotation(t *testing.T) {
	ms := catalog(t)
	o := New(ms, AllOn())
	// fact JOIN (selective dim filter): the probe-side scan gets a reducer.
	dimScan := scanOf(ms, t, "dim")
	dimFiltered := &plan.Filter{
		Input: dimScan,
		Cond:  eq(col(1, types.TString), plan.NewLiteral(types.NewString("x"))),
	}
	join := &plan.Join{
		Kind: plan.Inner, Left: scanOf(ms, t, "fact"), Right: dimFiltered,
		Cond: eq(col(0, types.TBigint), col(3, types.TBigint)),
	}
	rel := o.Optimize(join)
	s := plan.Explain(rel)
	var annotated *plan.Join
	var find func(r plan.Rel)
	find = func(r plan.Rel) {
		if j, ok := r.(*plan.Join); ok && j.ReducerID != 0 {
			annotated = j
		}
		for _, c := range r.Children() {
			find(c)
		}
	}
	find(rel)
	if annotated == nil {
		t.Fatalf("no semijoin reducer assigned:\n%s", s)
	}
	if !strings.Contains(s, "rf") {
		t.Errorf("probe scan missing runtime filter bind:\n%s", s)
	}
}

func TestJoinReorderStartsFromSmallest(t *testing.T) {
	ms := catalog(t)
	o := New(ms, AllOn())
	// fact x dim x other with chained equi conditions, written fact-first.
	fact, dim, other := scanOf(ms, t, "fact"), scanOf(ms, t, "dim"), scanOf(ms, t, "other")
	j1 := &plan.Join{Kind: plan.Inner, Left: fact, Right: dim,
		Cond: eq(col(0, types.TBigint), col(3, types.TBigint))}
	j2 := &plan.Join{Kind: plan.Inner, Left: j1, Right: other,
		Cond: eq(col(3, types.TBigint), col(5, types.TBigint))}
	rel := o.Optimize(j2)
	// Result schema must be unchanged (restoration projection).
	if got, want := len(rel.Schema()), len(j2.Schema()); got != want {
		t.Fatalf("schema width changed: %d vs %d", got, want)
	}
	s := plan.Explain(rel)
	if !strings.Contains(s, "Join[inner]") {
		t.Errorf("reorder lost join conditions (cross join introduced):\n%s", s)
	}
}

// TestJoinReorderBreaksTiesByInputOrder: cross-joined inputs with equal
// estimates (tpcds_q88's shape). Candidates used to be visited in map order,
// so two compiles of one statement could build different trees — and EXPLAIN
// could show a plan other than the one that ran.
func TestJoinReorderBreaksTiesByInputOrder(t *testing.T) {
	ms := catalog(t)
	for _, name := range []string{"fact", "dim", "other"} {
		ms.SetStats("default."+name, &metastore.TableStats{RowCount: 100})
	}
	build := func() plan.Rel {
		j := &plan.Join{Kind: plan.Cross, Left: scanOf(ms, t, "fact"), Right: scanOf(ms, t, "dim")}
		return &plan.Join{Kind: plan.Cross, Left: j, Right: scanOf(ms, t, "other")}
	}
	want := plan.Explain(New(ms, Options{JoinReorder: true}).Optimize(build()))
	if fact, dim, other := strings.Index(want, "default.fact"), strings.Index(want, "default.dim"), strings.Index(want, "default.other"); !(fact < dim && dim < other) {
		t.Fatalf("tied inputs were not kept in written order:\n%s", want)
	}
	for i := 0; i < 50; i++ {
		if got := plan.Explain(New(ms, Options{JoinReorder: true}).Optimize(build())); got != want {
			t.Fatalf("compile %d built a different tree:\n%s\nfirst:\n%s", i, got, want)
		}
	}
}

func TestSharedWorkSpoolsRepeatedSubtrees(t *testing.T) {
	ms := catalog(t)
	o := New(ms, AllOn())
	scan := scanOf(ms, t, "dim")
	agg := func() plan.Rel {
		return &plan.Aggregate{
			Input:   scan,
			GroupBy: []plan.Rex{col(1, types.TString)},
			Aggs:    []plan.AggCall{{Fn: "count", T: types.TBigint}},
		}
	}
	join := &plan.Join{Kind: plan.Cross, Left: agg(), Right: agg()}
	rel := o.Optimize(join)
	s := plan.Explain(rel)
	if !strings.Contains(s, "Spool") {
		t.Errorf("repeated subtree not spooled:\n%s", s)
	}
}

func TestRowEstimateUsesStats(t *testing.T) {
	ms := catalog(t)
	o := New(ms, AllOn())
	fact := scanOf(ms, t, "fact")
	if est := o.RowEstimate(fact); est != 100000 {
		t.Errorf("fact estimate: %v", est)
	}
	filtered := *fact
	filtered.Filter = []plan.Rex{eq(col(0, types.TBigint), plan.NewLiteral(types.NewBigint(5)))}
	est := o.RowEstimate(&filtered)
	if est < 50 || est > 200 { // 100000 / ndv(1000) = 100
		t.Errorf("equality selectivity via NDV: %v", est)
	}
}
