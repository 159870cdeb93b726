package exec

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// Microbenchmarks of the three operators on the columnar rowStore, the
// per-layer tier beside the repo benchmark's exec.sort / exec.window drivers:
//
//	go test -run '^$' -bench 'SortOp|WindowResident|SpoolReplay' -benchmem ./internal/exec

const benchStoreRows = 200 * 1024

// BenchmarkSortOp sorts 200k four-column rows by (decimal DESC, key): store
// append, one index sort, gathered emission.
func BenchmarkSortOp(b *testing.B) {
	in := benchBatches(benchStoreRows, benchStoreRows, 7919)
	keys := []plan.SortKey{{Col: 2, Desc: true}, {Col: 0}}
	runJoinBench(b, benchStoreRows, func() Operator {
		return &SortOp{Input: &batchesOp{ts: benchJoinTypes, batches: in}, Keys: keys, Ctx: NewContext()}
	})
}

// BenchmarkWindowResident runs a ranking function and a running sum under
// one spec, 100 partitions of ~2 000 rows: one index sort, one partition
// walk, emission as views.
func BenchmarkWindowResident(b *testing.B) {
	in := benchBatches(benchStoreRows, benchStoreRows, 7919)
	order := []plan.SortKey{{Col: 2, Desc: true}, {Col: 0}}
	fns := []plan.WindowFn{
		{Fn: "rank", PartitionBy: []int{1}, OrderBy: order, T: types.TBigint},
		{Fn: "sum", Arg: &plan.ColRef{Idx: 2, T: benchJoinTypes[2]}, PartitionBy: []int{1}, OrderBy: order, T: types.TDecimal(17, 2)},
	}
	out := append(append([]types.T{}, benchJoinTypes...), types.TBigint, types.TDecimal(17, 2))
	runJoinBench(b, benchStoreRows, func() Operator {
		return &WindowOp{Input: &batchesOp{ts: benchJoinTypes, batches: in}, Fns: fns, Out: out, Ctx: NewContext()}
	})
}

// BenchmarkSpoolReplay times one consumer's full replay of an already
// published spool — what every consumer after the first pays for a shared
// scan: zero-copy views, no row copied.
func BenchmarkSpoolReplay(b *testing.B) {
	in := &batchesOp{ts: benchJoinTypes, batches: benchBatches(benchStoreRows, benchStoreRows, 7919)}
	ctx := NewContext()
	if err := ctx.sharedSpool(1).materialize(in, ctx); err != nil {
		b.Fatal(err)
	}
	defer ctx.CloseSpools()
	runJoinBench(b, benchStoreRows, func() Operator { return &SpoolOp{ID: 1, Input: in, Ctx: ctx} })
}
