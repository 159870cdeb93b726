package exec

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// TestBuildWindowGroups checks the shared-pass bucketing: functions with
// the same (partition, order) spec land in one group with plan order
// preserved, distinct specs get their own.
func TestBuildWindowGroups(t *testing.T) {
	ts := []types.T{types.TBigint, types.TBigint, types.TBigint}
	ob := []plan.SortKey{{Col: 1}}
	fns := []plan.WindowFn{
		{Fn: "sum", Arg: &plan.ColRef{Idx: 2, T: types.TBigint}, PartitionBy: []int{0}, OrderBy: ob, T: types.TBigint},
		{Fn: "rank", PartitionBy: []int{0}, OrderBy: []plan.SortKey{{Col: 1, Desc: true}}, T: types.TBigint},
		{Fn: "count", PartitionBy: []int{0}, OrderBy: ob, T: types.TBigint},
		{Fn: "row_number", PartitionBy: []int{0}, OrderBy: ob, T: types.TBigint},
	}
	groups, err := buildWindowGroups(fns, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 (three fns share one spec)", len(groups))
	}
	if got := groups[0].fnIdx; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Errorf("shared group fnIdx %v, want [0 2 3]", got)
	}
	if got := groups[1].fnIdx; len(got) != 1 || got[0] != 1 {
		t.Errorf("desc group fnIdx %v, want [1]", got)
	}
}

// windowTrialRows builds random (g, k, v) rows with heavy ties and NULL
// order keys.
func windowTrialRows(rng *rand.Rand, n int) [][]types.Datum {
	rows := make([][]types.Datum, n)
	for i := range rows {
		k := types.NewBigint(int64(rng.Intn(6)))
		if rng.Intn(9) == 0 {
			k = types.NullOf(types.Int64)
		}
		rows[i] = []types.Datum{
			types.NewBigint(int64(rng.Intn(4))),
			k,
			types.NewBigint(int64(rng.Intn(500))),
		}
	}
	return rows
}

func runWindowOperatorTrial(t *testing.T, rng *rand.Rand) {
	t.Helper()
	rows := windowTrialRows(rng, 200+rng.Intn(600))
	ts := []types.T{types.TBigint, types.TBigint, types.TBigint}
	fns := []plan.WindowFn{
		{Fn: "sum", Arg: &plan.ColRef{Idx: 2, T: types.TBigint}, PartitionBy: []int{0}, OrderBy: []plan.SortKey{{Col: 1}}, T: types.TBigint},
		{Fn: "count", PartitionBy: []int{0}, OrderBy: []plan.SortKey{{Col: 1}}, T: types.TBigint},
		{Fn: "rank", PartitionBy: []int{0}, OrderBy: []plan.SortKey{{Col: 1, Desc: true, NullsFirst: true}}, T: types.TBigint},
		{Fn: "min", Arg: &plan.ColRef{Idx: 2, T: types.TBigint}, PartitionBy: []int{1}, T: types.TBigint},
		{Fn: "row_number", OrderBy: []plan.SortKey{{Col: 2}}, T: types.TBigint},
	}
	outTs := append(append([]types.T{}, ts...), types.TBigint, types.TBigint, types.TBigint, types.TBigint, types.TBigint)

	run := func(budget int64) ([][]types.Datum, *Context) {
		env := newSpillEnv(budget)
		w := &WindowOp{Input: &ValuesOp{Rows: rows, Ts: ts}, Fns: fns, Out: outTs, Ctx: env.ctx}
		got, err := Drain(w)
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if leaks := env.leakedFiles(t); len(leaks) != 0 {
			t.Fatalf("budget=%d: window leaked scratch files %v", budget, leaks)
		}
		return got, env.ctx
	}
	base, _ := run(0)
	// Between a quarter and a half of what the input store accounts for
	// these rows, so every trial spills whatever a stored row costs.
	resident := storeBytes(rows, ts)
	budget := resident/4 + rng.Int63n(resident/4)
	got, ctx := run(budget)
	if ctx.Governor().SpilledBytes() == 0 {
		t.Fatalf("budget=%d of %d stored bytes over %d rows did not spill", budget, resident, len(rows))
	}
	if !rowsEqual(base, got) {
		t.Fatalf("budget=%d rows=%d: external window output diverges from in-memory", budget, len(rows))
	}
}

// TestWindowSpillOperatorEquivalence is the operator-level fixed-seed
// property: the external (spilling) window pass must be byte-identical to
// the in-memory pass — arrival order, peer frames and tie-breaks included.
// `go test -tags stress` runs the seed-randomized twin.
func TestWindowSpillOperatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		runWindowOperatorTrial(t, rng)
	}
}
