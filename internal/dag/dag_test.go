package dag

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

func TestCodecRoundTrip(t *testing.T) {
	rows := [][]types.Datum{
		{types.NewBigint(-7), types.NewString("hello"), types.NewDouble(2.5)},
		{types.NullOf(types.Int64), types.NewString(""), types.NewDecimal(-1234, 2)},
		{types.NewBool(true), types.NewDate(17000), types.NewTimestamp(1234567)},
	}
	data := spill.EncodeRows(rows)
	back, err := spill.DecodeRows(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("row count: %d", len(back))
	}
	for i := range rows {
		for j := range rows[i] {
			a, b := rows[i][j], back[i][j]
			if a.Null != b.Null || (!a.Null && a.Compare(b) != 0) {
				t.Errorf("row %d col %d: %v vs %v", i, j, a, b)
			}
		}
	}
	if _, err := spill.DecodeRows(data[:3]); err == nil {
		t.Error("truncated spill should fail")
	}
}

func valuesOp(n int) *exec.ValuesOp {
	rows := make([][]types.Datum, n)
	for i := range rows {
		rows[i] = []types.Datum{types.NewBigint(int64(i))}
	}
	return &exec.ValuesOp{Rows: rows, Ts: []types.T{types.TBigint}}
}

// TestAnalyzeCountsVerticesAndBreakers pins the DAG shape of every operator
// kind to what the per-kind switch this walk replaced yielded: a scan is a
// vertex, the blocking operators are a vertex and a breaker, SetOp is a
// breaker inside its consumer's vertex, the streaming operators count
// nothing, and placements (made after analysis) are not entered.
func TestAnalyzeCountsVerticesAndBreakers(t *testing.T) {
	scan := func() exec.Operator { return &exec.ScanOp{} }
	two := func() []exec.Operator { return []exec.Operator{scan(), scan()} }
	join := &exec.HashJoinOp{Left: scan(), Right: scan()}
	cases := []struct {
		name string
		op   exec.Operator
		want DAG
	}{
		{"Scan", scan(), DAG{1, 0}},
		{"Values", valuesOp(1), DAG{1, 0}},
		{"Filter", &exec.FilterOp{Input: scan()}, DAG{1, 0}},
		{"Project", &exec.ProjectOp{Input: scan()}, DAG{1, 0}},
		{"Limit", &exec.LimitOp{Input: scan()}, DAG{1, 0}},
		{"Spool", &exec.SpoolOp{Input: scan()}, DAG{1, 0}},
		{"UnionAll", &exec.UnionAllOp{Inputs: two()}, DAG{2, 0}},
		{"HashJoin", join, DAG{3, 1}},
		{"HashAgg", &exec.HashAggOp{Input: scan()}, DAG{2, 1}},
		{"Sort", &exec.SortOp{Input: scan()}, DAG{2, 1}},
		{"TopN", &exec.TopNOp{Input: scan()}, DAG{2, 1}},
		{"Window", &exec.WindowOp{Input: scan()}, DAG{2, 1}},
		{"SetOp", &exec.SetOpOp{Left: scan(), Right: scan()}, DAG{2, 1}},
		{"nested", &exec.SortOp{Input: &exec.HashAggOp{Input: &exec.FilterOp{Input: join}}}, DAG{5, 3}},
		{"Exchange", &exec.ParallelOp{Workers: two()}, DAG{1, 0}},
		{"ParallelHashAgg", &exec.ParallelHashAggOp{Workers: two()}, DAG{1, 0}},
		{"MergeExchange", &exec.MergeOp{Workers: []exec.Operator{&exec.SortOp{Input: scan()}}}, DAG{1, 0}},
		{"ParallelTopN", &exec.ParallelTopNOp{Workers: two()}, DAG{1, 0}},
		{"PartitionJoin", &exec.PartitionJoinOp{Pipeline: join}, DAG{1, 0}},
		{"SpillExchange", &SpillExchangeOp{Input: &exec.SortOp{Input: scan()}}, DAG{1, 0}},
		{"pass-through", &passThroughOp{In: &exec.HashAggOp{Input: scan()}}, DAG{2, 1}},
		{"opaque", &opaqueOp{In: &exec.HashAggOp{Input: scan()}}, DAG{1, 0}},
	}
	for _, c := range cases {
		if got := Analyze(c.op); got != c.want {
			t.Errorf("%s: Analyze = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// passThroughOp is the twin of internal/exec's toy operator: known to no
// other file, carried through Analyze and insertSpills by the node contract
// alone. opaqueOp is the same operator without the contract.
type passThroughOp struct{ In exec.Operator }

func (p *passThroughOp) Types() []types.T             { return p.In.Types() }
func (p *passThroughOp) Open() error                  { return p.In.Open() }
func (p *passThroughOp) Next() (*vector.Batch, error) { return p.In.Next() }
func (p *passThroughOp) Close() error                 { return p.In.Close() }
func (p *passThroughOp) Describe(b *strings.Builder)  { b.WriteString("PassThrough") }
func (p *passThroughOp) Stage() exec.Stage            { return exec.StagePipelined }
func (p *passThroughOp) Child(i int) *exec.Operator {
	if i == 0 {
		return &p.In
	}
	return nil
}

type opaqueOp struct{ In exec.Operator }

func (o *opaqueOp) Types() []types.T             { return o.In.Types() }
func (o *opaqueOp) Open() error                  { return o.In.Open() }
func (o *opaqueOp) Next() (*vector.Batch, error) { return o.In.Next() }
func (o *opaqueOp) Close() error                 { return o.In.Close() }

func TestMRSpillsBelowContractOperatorOnly(t *testing.T) {
	sorted := func() *exec.SortOp {
		return &exec.SortOp{Input: valuesOp(10), Keys: []plan.SortKey{{Col: 0}}}
	}
	srt := sorted()
	r := &Runner{Mode: ModeMR, FS: dfs.New(), ScratchDir: "/scratch"}
	op, shape := r.Prepare(&passThroughOp{In: srt})
	if _, ok := srt.Input.(*SpillExchangeOp); !ok {
		t.Errorf("breaker below the pass-through operator was not wrapped: input is %T", srt.Input)
	}
	if rows, err := r.Run(op, shape); err != nil || len(rows) != 10 {
		t.Errorf("run through the pass-through operator: %d rows, err %v", len(rows), err)
	}
	srt = sorted()
	r.Prepare(&opaqueOp{In: srt})
	if _, ok := srt.Input.(*SpillExchangeOp); ok {
		t.Error("insertSpills entered an operator that does not describe its inputs")
	}
}

func TestMRModeSpillsAndPreservesResults(t *testing.T) {
	fs := dfs.New()
	agg := &exec.HashAggOp{
		Input: valuesOp(100),
		Aggs:  []exec.CompiledAgg{{Fn: "count", T: types.TBigint}},
		Out:   []types.T{types.TBigint},
	}
	r := &Runner{Mode: ModeMR, FS: fs, ScratchDir: "/scratch", ContainerLaunch: time.Millisecond}
	op, shape := r.Prepare(agg)
	rows, err := r.Run(op, shape)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 100 {
		t.Fatalf("result: %v", rows)
	}
	// The spill must have touched the DFS.
	if fs.IOStats().WriteOps == 0 {
		t.Error("MR mode did not materialize to the DFS")
	}
	spills, _ := fs.ListRecursive("/scratch")
	if len(spills) == 0 {
		t.Error("no spill files under the scratch dir")
	}
}

func TestContainerVsMRSpillCost(t *testing.T) {
	fs := dfs.New()
	mk := func() exec.Operator {
		return &exec.SortOp{
			Input: valuesOp(2000),
			Keys:  []plan.SortKey{{Col: 0, Desc: true}},
		}
	}
	mr := &Runner{Mode: ModeMR, FS: fs, ScratchDir: "/s1"}
	opMR, shapeMR := mr.Prepare(mk())
	rowsMR, err := mr.Run(opMR, shapeMR)
	if err != nil {
		t.Fatal(err)
	}
	tez := &Runner{Mode: ModeContainer, FS: fs, ScratchDir: "/s2"}
	opTez, shapeTez := tez.Prepare(mk())
	rowsTez, err := tez.Run(opTez, shapeTez)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsMR[0], rowsTez[0]) || len(rowsMR) != len(rowsTez) {
		t.Error("modes disagree on results")
	}
	// Only MR materializes.
	if files, _ := fs.ListRecursive("/s2"); len(files) != 0 {
		t.Error("container mode should not spill")
	}
}
