package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// The join oracle: an independent nested-loop reference over boxed rows,
// compared as multisets against HashJoinOp for every join kind, key shape,
// degree of parallelism, memory budget and build-sharing mode. It shares no
// code with the operator beyond Datum.Compare.

// oracleTypes is the schema of both join sides: five key-able columns of
// different representations and a unique id the residual compares.
var oracleTypes = []types.T{types.TBigint, types.TDecimal(9, 2), types.TDouble, types.TString, types.TDate, types.TInt}

const oracleID = 5

// oracleRows generates n rows whose key columns draw independently from a
// domain of the given size (small domains give duplicate keys and fan-out)
// with one value in eight NULL.
func oracleRows(rng *rand.Rand, n, domain int) [][]types.Datum {
	rows := make([][]types.Datum, n)
	for i := range rows {
		pick := func(mk func(x int64) types.Datum, k types.Kind) types.Datum {
			if rng.Intn(8) == 0 {
				return types.NullOf(k)
			}
			return mk(int64(rng.Intn(domain)))
		}
		rows[i] = []types.Datum{
			pick(types.NewBigint, types.Int64),
			pick(func(x int64) types.Datum { return types.NewDecimal(x*50, 2) }, types.Decimal),
			pick(func(x int64) types.Datum { return types.NewDouble(float64(x) / 2) }, types.Float64),
			pick(func(x int64) types.Datum { return types.NewString(fmt.Sprintf("k%d", x)) }, types.String),
			pick(func(x int64) types.Datum { return types.NewDate(17000 + x) }, types.Date),
			types.NewInt(int32(i)),
		}
	}
	return rows
}

// A join output row is identified by the ids of the two rows it came from,
// -1 standing for the null-extended (or, for Semi/Anti, absent) side.
func pairID(left, right int64) int64 { return (left+1)<<32 | (right + 1) }

// refJoin is the reference: every left row against every right row. The
// residual, when on, is left.id <= right.id. more reports a Single join
// that found a second match, which the operator must turn into an error.
func refJoin(kind plan.JoinKind, left, right [][]types.Datum, keys []int, residual bool) (out []int64, more bool) {
	matchedRight := make([]bool, len(right))
	for li, l := range left {
		matches := 0
		for ri, r := range right {
			ok := !residual || l[oracleID].I <= r[oracleID].I
			for _, k := range keys {
				ok = ok && !l[k].Null && !r[k].Null && l[k].Compare(r[k]) == 0
			}
			if !ok {
				continue
			}
			matches++
			matchedRight[ri] = true
			if kind != plan.Semi && kind != plan.Anti {
				out = append(out, pairID(int64(li), int64(ri)))
			}
		}
		switch {
		case kind == plan.Semi && matches > 0, kind == plan.Anti && matches == 0,
			matches == 0 && (kind == plan.Left || kind == plan.Full || kind == plan.Single):
			out = append(out, pairID(int64(li), -1))
		case kind == plan.Single && matches > 1:
			more = true
		}
	}
	if kind == plan.Right || kind == plan.Full {
		for ri := range right {
			if !matchedRight[ri] {
				out = append(out, pairID(-1, int64(ri)))
			}
		}
	}
	slices.Sort(out)
	return out, more
}

// outputPairs maps the operator's output rows to sorted id pairs, checking
// on the way that each half of every row is a verbatim copy of the input
// row its id names (or all NULL).
func outputPairs(t *testing.T, c oracleCase, rows, left, right [][]types.Datum) []int64 {
	t.Helper()
	half := func(got []types.Datum, src [][]types.Datum) int64 {
		if got[oracleID].Null {
			for _, d := range got {
				if !d.Null {
					t.Errorf("%v: null-extended side carries %v", c, d)
				}
			}
			return -1
		}
		id := got[oracleID].I
		if !rowsEqual([][]types.Datum{got}, [][]types.Datum{src[id]}) {
			t.Errorf("%v: output %v is not input row %v", c, got, src[id])
		}
		return id
	}
	w := len(oracleTypes)
	out := make([]int64, len(rows))
	for i, row := range rows {
		if len(row) == w {
			out[i] = pairID(half(row, left), -1)
		} else {
			out[i] = pairID(half(row[:w], left), half(row[w:], right))
		}
	}
	slices.Sort(out)
	return out
}

// oracleCase is one operator configuration.
type oracleCase struct {
	kind     plan.JoinKind
	keys     []int
	residual bool
	dop      int
	budget   int64
	shared   bool // probe through worker clones over one sharedBuild
}

func (c oracleCase) String() string {
	return fmt.Sprintf("kind=%v keys=%v residual=%v dop=%d budget=%d shared=%v", c.kind, c.keys, c.residual, c.dop, c.budget, c.shared)
}

// runOracleCase runs the operator, then checks that nothing is left behind:
// no scratch file, no reserved byte.
func runOracleCase(t *testing.T, c oracleCase, left, right [][]types.Datum, batch int) ([][]types.Datum, error, int64) {
	t.Helper()
	env := newSpillEnv(c.budget)
	env.ctx.DOP = c.dop
	var lk, rk []*CompiledExpr
	for _, k := range c.keys {
		e, err := Compile(&plan.ColRef{Idx: k, T: oracleTypes[k]}, oracleTypes)
		if err != nil {
			t.Fatal(err)
		}
		lk, rk = append(lk, e), append(rk, e)
	}
	var res *CompiledExpr
	if c.residual {
		w := len(oracleTypes)
		var err error
		res, err = Compile(&plan.Func{Op: "<=", T: types.TBool, Args: []plan.Rex{
			&plan.ColRef{Idx: oracleID, T: types.TInt}, &plan.ColRef{Idx: w + oracleID, T: types.TInt},
		}}, append(append([]types.T{}, oracleTypes...), oracleTypes...))
		if err != nil {
			t.Fatal(err)
		}
	}
	source := func(rows [][]types.Datum) Operator { return &rowsOp{ts: oracleTypes, rows: rows, batch: batch} }
	var op Operator = &HashJoinOp{Left: source(left), Right: source(right), Kind: c.kind,
		LeftKeys: lk, RightKeys: rk, Residual: res, Ctx: env.ctx}
	if c.shared {
		// What cloneWorkers builds: one template resolved for its schema,
		// then Right-less clones over disjoint probe shares.
		tmpl := op.(*HashJoinOp)
		tmpl.Types()
		sb := &sharedBuild{right: tmpl.Right}
		n := max(2, c.dop)
		workers := make([]Operator, n)
		for w := range workers {
			lo, hi := len(left)*w/n, len(left)*(w+1)/n
			workers[w] = &HashJoinOp{Left: source(left[lo:hi]), Kind: c.kind, LeftKeys: lk, RightKeys: rk,
				Residual: res, Ctx: env.ctx, Shared: sb,
				outTypes: tmpl.outTypes, leftW: tmpl.leftW, rtTypes: tmpl.rtTypes}
		}
		op = &ParallelOp{Workers: workers, Ctx: env.ctx}
	}
	rows, err := Drain(op)
	if leaks := env.leakedFiles(t); len(leaks) != 0 {
		t.Errorf("%v: leaked scratch files %v", c, leaks)
	}
	if used := env.ctx.Mem.UsedBytes(); used != 0 {
		t.Errorf("%v: %d bytes still reserved after Close", c, used)
	}
	return rows, err, env.ctx.Mem.SpilledBytes()
}

var oracleKinds = []plan.JoinKind{plan.Inner, plan.Left, plan.Right, plan.Full, plan.Semi, plan.Anti, plan.Single}

var oracleKeySets = [][]int{{0}, {1}, {2}, {3}, {4}, {0, 3}, {1, 2, 4}, {}}

// runJoinOracle checks every configuration over inputs drawn from rng:
// empty sides, a small pair with heavy fan-out (each probe row matches
// dozens of build rows, so pair chunks split mid-chain), and a multi-batch
// pair. It returns how many configurations Grace-spilled.
func runJoinOracle(t *testing.T, rng *rand.Rand) (spilledCases int) {
	type input struct {
		left, right [][]types.Datum
		batch       int
		keyed       bool // too large for the nested-loop key set
	}
	inputs := []input{
		{oracleRows(rng, 0, 4), oracleRows(rng, 40, 4), 16, false},
		{oracleRows(rng, 40, 4), oracleRows(rng, 0, 4), 16, false},
		{oracleRows(rng, 300, 6), oracleRows(rng, 200, 6), 64, false},
		{oracleRows(rng, 1300, 40), oracleRows(rng, 700, 40), 0, true},
	}
	for _, in := range inputs {
		for _, keys := range oracleKeySets {
			if in.keyed && len(keys) == 0 {
				continue
			}
			for _, kind := range oracleKinds {
				for _, residual := range []bool{false, true} {
					want, more := refJoin(kind, in.left, in.right, keys, residual)
					for _, dop := range []int{1, 2, 4} {
						for _, budget := range []int64{0, 2048} {
							for _, shared := range []bool{false, true} {
								if shared && (kind == plan.Right || kind == plan.Full || len(keys) == 0) {
									continue // never cloned (HashJoinOp.streamed)
								}
								c := oracleCase{kind, keys, residual, dop, budget, shared}
								got, err, spilled := runOracleCase(t, c, in.left, in.right, in.batch)
								if spilled > 0 {
									spilledCases++
								}
								switch {
								case more && err == nil:
									t.Errorf("%v: scalar subquery with several matches did not fail", c)
								case more:
								case err != nil:
									t.Errorf("%v: %v", c, err)
								case !slices.Equal(outputPairs(t, c, got, in.left, in.right), want):
									t.Errorf("%v (%d x %d rows): %d rows, reference has %d", c, len(in.left), len(in.right), len(got), len(want))
								}
								if budget > 0 && len(keys) > 0 && len(in.right) >= 200 && spilled == 0 {
									t.Errorf("%v: a %d-row build under a %d-byte budget did not Grace-spill", c, len(in.right), budget)
								}
							}
						}
					}
				}
			}
		}
	}
	return spilledCases
}

// TestJoinOracle is the fixed-seed run; the randomized twin lives under
// -tags stress (join_oracle_stress_test.go).
func TestJoinOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the oracle sweep runs under make join")
	}
	if n := runJoinOracle(t, rand.New(rand.NewSource(13))); n == 0 {
		t.Error("no configuration spilled: the Grace path went untested")
	}
}

// TestJoinOracleSingleUnique covers the Single join's success path, which
// the random inputs rarely reach: a build side with at most one row per key.
func TestJoinOracleSingleUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	left := oracleRows(rng, 400, 50)
	var right [][]types.Datum
	seen := map[int64]bool{}
	for _, r := range oracleRows(rng, 200, 50) {
		if !r[0].Null && !seen[r[0].I] {
			seen[r[0].I] = true
			r[oracleID] = types.NewInt(int32(len(right))) // ids index the slice
			right = append(right, r)
		}
	}
	want, more := refJoin(plan.Single, left, right, []int{0}, false)
	if more {
		t.Fatal("deduplicated build still matches twice")
	}
	for _, dop := range []int{1, 4} {
		for _, budget := range []int64{0, 1024} {
			c := oracleCase{plan.Single, []int{0}, false, dop, budget, dop > 1}
			got, err, _ := runOracleCase(t, c, left, right, 64)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			if !slices.Equal(outputPairs(t, c, got, left, right), want) {
				t.Errorf("%v: %d rows, reference has %d", c, len(got), len(want))
			}
		}
	}
}
