package exec

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// keyedRows is n one-column BIGINT rows with keys i % domain.
func keyedRows(n, domain int) [][]types.Datum {
	rows := make([][]types.Datum, n)
	for i := range rows {
		rows[i] = []types.Datum{types.NewBigint(int64(i % domain))}
	}
	return rows
}

// TestBuildFilterValueCap is the regression for the semijoin reducer's
// value list: its guard was always true, so a big build kept one datum per
// build row until the filter was published. The list now stops one
// past the pruning limit, and dynamic partition pruning off a small build
// still prunes exactly as before.
func TestBuildFilterValueCap(t *testing.T) {
	var f RuntimeFilter
	for i := 0; i < 50000; i++ {
		updateFilter(&f, types.NewBigint(int64(i)))
	}
	if len(f.Values) != maxPruneValues+1 {
		t.Fatalf("value list holds %d datums after 50000 keys, want the %d that show the overflow", len(f.Values), maxPruneValues+1)
	}
	if f.Min.I != 0 || f.Max.I != 49999 || !f.Bloom.MayContain(types.NewBigint(31337).Hash()) {
		t.Errorf("capping the value list lost range or Bloom updates: min %v max %v", f.Min, f.Max)
	}

	// The same through the operator: a 50 000-row build publishes a filter
	// without a value list (too many to prune by), a two-row build one that
	// prunes the partitioned scan to the matching partition.
	w := newTestWarehouse(t)
	tbl, _ := w.ms.GetTable("default", "sales")
	ts := []types.T{types.TBigint}
	key, err := Compile(&plan.ColRef{Idx: 0, T: types.TBigint}, ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		build    [][]types.Datum
		wantRows int // sales rows the pruned scan still reads
	}{
		{keyedRows(50000, 50000), 8},
		{[][]types.Datum{{types.NewBigint(2)}, {types.NewBigint(2)}}, 4}, // ds=2 only
	} {
		ctx := NewContext()
		f := ctx.RegisterFilter(7)
		join := &HashJoinOp{
			Left: &rowsOp{ts: ts, rows: keyedRows(10, 10)}, Right: &rowsOp{ts: ts, rows: c.build},
			Kind: plan.Semi, LeftKeys: []*CompiledExpr{key}, RightKeys: []*CompiledExpr{key},
			Ctx: ctx, BuildFilter: f,
		}
		if _, err := Drain(join); err != nil {
			t.Fatal(err)
		}
		if big := len(c.build) > maxPruneValues; big != (f.Values == nil) {
			t.Errorf("%d-row build: published value list has %d entries", len(c.build), len(f.Values))
		}
		scan := &ScanOp{
			FS: w.ms.FS(), Table: tbl, Cols: []int{0, 3}, // item_sk, ds
			Splits: w.splitsOf(tbl), Ctx: ctx,
			Prune: []PartPruneBind{{FilterID: 7, PartKey: 0}},
		}
		rows, err := Drain(scan)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.wantRows {
			t.Errorf("%d-row build: pruned scan read %d rows, want %d", len(c.build), len(rows), c.wantRows)
		}
	}
}

// Join microbenchmarks (ROADMAP item 1, per layer): B/op and allocs/op of
// the build and of each probe shape, with a ns/row metric over the rows the
// measured phase consumes.

const (
	benchBuildRows = 64 * vector.BatchSize
	benchProbeRows = 256 * vector.BatchSize
)

var benchJoinTypes = []types.T{types.TBigint, types.TInt, types.TDecimal(7, 2), types.TString}

// benchBatches pre-builds n rows of benchJoinTypes as full batches: key
// i*stride % domain, a payload int, a decimal and a short string.
func benchBatches(n, domain, stride int) []*vector.Batch {
	var out []*vector.Batch
	for start := 0; start < n; start += vector.BatchSize {
		b := vector.NewBatch(benchJoinTypes, vector.BatchSize)
		for i := 0; i < vector.BatchSize; i++ {
			r := start + i
			b.Cols[0].I64[i] = int64(r * stride % domain)
			b.Cols[1].I64[i] = int64(r % 100)
			b.Cols[2].I64[i] = int64(r%5000) * 7
			b.Cols[3].Str[i] = fmt.Sprintf("name-%04d", r%1000)
		}
		b.N = vector.BatchSize
		out = append(out, b)
	}
	return out
}

// batchesOp replays pre-built batches; operators never mutate their input,
// so one set serves every iteration.
type batchesOp struct {
	ts      []types.T
	batches []*vector.Batch
	pos     int
}

func (o *batchesOp) Types() []types.T { return o.ts }
func (o *batchesOp) Open() error      { o.pos = 0; return nil }
func (o *batchesOp) Close() error     { return nil }
func (o *batchesOp) Next() (*vector.Batch, error) {
	if o.pos >= len(o.batches) {
		return nil, nil
	}
	o.pos++
	return o.batches[o.pos-1], nil
}

var benchSink int

// runJoinBench drains the join b.N times and reports ns per row of rows.
func runJoinBench(b *testing.B, rows int, mk func() Operator) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := mk()
		if err := op.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			out, err := op.Next()
			if err != nil {
				b.Fatal(err)
			}
			if out == nil {
				break
			}
			benchSink += out.N
		}
		op.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

func benchJoin(b *testing.B, kind plan.JoinKind, probe, build []*vector.Batch, residual bool) func() Operator {
	key, err := Compile(&plan.ColRef{Idx: 0, T: types.TBigint}, benchJoinTypes)
	if err != nil {
		b.Fatal(err)
	}
	var res *CompiledExpr
	if residual {
		// probe.payload <= build.payload: about half the key matches pass.
		res, err = Compile(&plan.Func{Op: "<=", T: types.TBool, Args: []plan.Rex{
			&plan.ColRef{Idx: 1, T: types.TInt}, &plan.ColRef{Idx: len(benchJoinTypes) + 1, T: types.TInt},
		}}, append(append([]types.T{}, benchJoinTypes...), benchJoinTypes...))
		if err != nil {
			b.Fatal(err)
		}
	}
	return func() Operator {
		return &HashJoinOp{
			Left:  &batchesOp{ts: benchJoinTypes, batches: probe},
			Right: &batchesOp{ts: benchJoinTypes, batches: build},
			Kind:  kind, LeftKeys: []*CompiledExpr{key}, RightKeys: []*CompiledExpr{key},
			Residual: res, Ctx: NewContext(),
		}
	}
}

// BenchmarkHashJoinBuild times the build alone: an empty probe side.
func BenchmarkHashJoinBuild(b *testing.B) {
	build := benchBatches(benchBuildRows, benchBuildRows, 1)
	runJoinBench(b, benchBuildRows, benchJoin(b, plan.Inner, nil, build, false))
}

// BenchmarkHashJoinProbe times build plus probe against a unique-key build
// a quarter the probe's size; ns/row is per probe row. "left_misses" probes
// keys of twice the build's domain, so half the rows null-extend.
func BenchmarkHashJoinProbe(b *testing.B) {
	build := benchBatches(benchBuildRows, benchBuildRows, 1)
	hits := benchBatches(benchProbeRows, benchBuildRows, 7)
	misses := benchBatches(benchProbeRows, 2*benchBuildRows, 7)
	for _, c := range []struct {
		name     string
		kind     plan.JoinKind
		probe    []*vector.Batch
		residual bool
	}{
		{"inner", plan.Inner, hits, false},
		{"semi", plan.Semi, hits, false},
		{"left_misses", plan.Left, misses, false},
		{"residual", plan.Inner, hits, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			runJoinBench(b, benchProbeRows, benchJoin(b, c.kind, c.probe, build, c.residual))
		})
	}
}
