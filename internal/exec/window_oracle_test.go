package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// The window oracle: an independent nested-loop reference over boxed rows.
// For each row it scans the whole input for the rows of its partition and,
// among those, the rows of its frame — everything ordered at or before it,
// the RANGE UNBOUNDED PRECEDING TO CURRENT ROW default that makes peers share
// a result. It sorts nothing, keeps no state between rows, and shares no
// code with WindowOp beyond Datum.Compare. Inputs are the join oracle's rows
// (oracleTypes): every value is an integer or a multiple of one half, so the
// sums and averages are exact whatever order they accumulate in.

// refKeyCmp is the reference ordering of two datums under one sort key.
func refKeyCmp(k plan.SortKey, x, y types.Datum) int {
	switch {
	case x.Null && y.Null:
		return 0
	case x.Null || y.Null:
		if x.Null == k.NullsFirst {
			return -1
		}
		return 1
	}
	if k.Desc {
		return y.Compare(x)
	}
	return x.Compare(y)
}

func refOrderCmp(keys []plan.SortKey, a, b []types.Datum) int {
	for _, k := range keys {
		if c := refKeyCmp(k, a[k.Col], b[k.Col]); c != 0 {
			return c
		}
	}
	return 0
}

func refSamePartition(cols []int, a, b []types.Datum) bool {
	for _, c := range cols {
		if a[c].Null != b[c].Null || (!a[c].Null && a[c].Compare(b[c]) != 0) {
			return false
		}
	}
	return true
}

// refArg evaluates the oracle's argument shapes: a bare column, or the one
// computed argument the cases use, column 0 plus the row id.
func refArg(arg plan.Rex, row []types.Datum) types.Datum {
	switch x := arg.(type) {
	case *plan.ColRef:
		return row[x.Idx]
	case *plan.Func:
		a, b := row[0], row[oracleID]
		if a.Null || b.Null {
			return types.NullOf(types.Int64)
		}
		return types.NewBigint(a.I + b.I)
	}
	panic("window oracle: unknown argument shape")
}

// refWindow computes one function for every row of the input.
func refWindow(fn plan.WindowFn, rows [][]types.Datum) []types.Datum {
	out := make([]types.Datum, len(rows))
	for i, row := range rows {
		// Position of the row among its partition's rows.
		var before, peersBefore int64 // ordered strictly before; peers that arrived earlier
		distinctBefore := int64(0)    // peer groups ordered strictly before
		// Frame aggregate state.
		var count int64
		var sumI int64
		var sumF float64
		var minD, maxD types.Datum
		seen := false
		for j, other := range rows {
			if !refSamePartition(fn.PartitionBy, row, other) {
				continue
			}
			c := refOrderCmp(fn.OrderBy, other, row)
			if c < 0 {
				before++
				first := true // is other the earliest row of its peer group?
				for k := 0; k < j && first; k++ {
					first = !(refSamePartition(fn.PartitionBy, row, rows[k]) && refOrderCmp(fn.OrderBy, rows[k], other) == 0)
				}
				if first {
					distinctBefore++
				}
			}
			if c == 0 && j < i {
				peersBefore++
			}
			if c > 0 {
				continue // after the current row: outside the frame
			}
			d := types.NewBigint(1)
			if fn.Arg != nil {
				if d = refArg(fn.Arg, other); d.Null {
					continue
				}
			}
			count++
			switch d.K {
			case types.Float64:
				sumF += d.F
			case types.Decimal:
				sumI += d.I
				sumF += float64(d.I) / math.Pow10(d.DecimalScale())
			default:
				sumI += d.I
				sumF += float64(d.I)
			}
			if !seen || d.Compare(minD) < 0 {
				minD = d
			}
			if !seen || d.Compare(maxD) > 0 {
				maxD = d
			}
			seen = true
		}
		switch fn.Fn {
		case "row_number":
			out[i] = types.NewBigint(before + peersBefore + 1)
		case "rank":
			out[i] = types.NewBigint(before + 1)
		case "dense_rank":
			out[i] = types.NewBigint(distinctBefore + 1)
		case "count":
			out[i] = types.NewBigint(count)
		case "sum":
			switch {
			case count == 0:
				out[i] = types.NullOf(fn.T.Kind)
			case fn.T.Kind == types.Float64:
				out[i] = types.NewDouble(sumF)
			case fn.T.Kind == types.Decimal:
				out[i] = types.NewDecimal(sumI, fn.T.Scale)
			default:
				out[i] = types.NewBigint(sumI)
			}
		case "avg":
			if count == 0 {
				out[i] = types.NullOf(types.Float64)
			} else {
				out[i] = types.NewDouble(sumF / float64(count))
			}
		case "min":
			out[i] = minD
			if !seen {
				out[i] = types.NullOf(fn.T.Kind)
			}
		case "max":
			out[i] = maxD
			if !seen {
				out[i] = types.NullOf(fn.T.Kind)
			}
		}
	}
	return out
}

// windowSpec is one (PARTITION BY, ORDER BY) shape of the sweep.
type windowSpec struct {
	part  []int
	order []plan.SortKey
}

// windowOracleSpecs covers no/one/two partition columns of every key
// representation, ascending, DESC and NULLS FIRST keys, and pairs that share
// a partition column set with different orders (one shared partition pass).
var windowOracleSpecs = []windowSpec{
	{nil, nil},
	{[]int{0}, nil},
	{[]int{0}, []plan.SortKey{{Col: 1}}},
	{[]int{0}, []plan.SortKey{{Col: 3, Desc: true}}},
	{[]int{3}, []plan.SortKey{{Col: 2, Desc: true, NullsFirst: true}}},
	{[]int{1}, []plan.SortKey{{Col: 0, NullsFirst: true}, {Col: 3}}},
	{[]int{2}, []plan.SortKey{{Col: 4}}},
	{[]int{4, 0}, []plan.SortKey{{Col: 1, Desc: true}}},
	{[]int{0, 4}, []plan.SortKey{{Col: 2}}},
	{nil, []plan.SortKey{{Col: 3}, {Col: 1, Desc: true}}},
	{nil, []plan.SortKey{{Col: 2, NullsFirst: true}}},
}

// windowOracleFns are the function shapes every spec is crossed with.
func windowOracleFns() []plan.WindowFn {
	col := func(i int) plan.Rex { return &plan.ColRef{Idx: i, T: oracleTypes[i]} }
	return []plan.WindowFn{
		{Fn: "row_number", T: types.TBigint},
		{Fn: "rank", T: types.TBigint},
		{Fn: "dense_rank", T: types.TBigint},
		{Fn: "count", T: types.TBigint},
		{Fn: "count", Arg: col(3), T: types.TBigint},
		{Fn: "sum", Arg: col(0), T: types.TBigint},
		{Fn: "sum", Arg: col(1), T: types.TDecimal(19, 2)},
		{Fn: "sum", Arg: col(2), T: types.TDouble},
		{Fn: "sum", T: types.TBigint, Arg: &plan.Func{Op: "+", T: types.TBigint, Args: []plan.Rex{col(0), col(oracleID)}}},
		{Fn: "avg", Arg: col(1), T: types.TDouble},
		{Fn: "avg", Arg: col(0), T: types.TDouble},
		{Fn: "min", Arg: col(3), T: types.TString},
		{Fn: "min", Arg: col(1), T: oracleTypes[1]},
		{Fn: "max", Arg: col(2), T: types.TDouble},
		{Fn: "max", Arg: col(4), T: types.TDate},
	}
}

// runWindowOracle checks WindowOp against the reference: every function
// shape under three specs per operator (so one WindowOp mixes solo groups,
// shared partition passes and, over sorted input, presorted groups), resident
// and under a budget that forces the external pass, with property planning
// on and off. It returns how many runs spilled.
func runWindowOracle(t *testing.T, rng *rand.Rand) (spilledRuns int) {
	inputs := []struct {
		rows  [][]types.Datum
		batch int
	}{
		{oracleRows(rng, 0, 4), 16},
		{oracleRows(rng, 1, 4), 16},
		{oracleRows(rng, 160, 3), 7},   // a few large partitions, heavy ties
		{oracleRows(rng, 260, 40), 64}, // many small partitions
	}
	shapes := windowOracleFns()
	for _, in := range inputs {
		for s0 := range windowOracleSpecs {
			// Three specs per operator: this one, its neighbour, and one from
			// across the list.
			specs := []windowSpec{windowOracleSpecs[s0], windowOracleSpecs[(s0+1)%len(windowOracleSpecs)], windowOracleSpecs[(s0+5)%len(windowOracleSpecs)]}
			var fns []plan.WindowFn
			for i, fn := range shapes {
				sp := specs[i%len(specs)]
				fn.PartitionBy, fn.OrderBy = sp.part, sp.order
				fns = append(fns, fn)
			}
			// Rotate which functions meet which spec between operators.
			shapes = append(shapes[1:], shapes[0])
			out := append([]types.T{}, oracleTypes...)
			for _, fn := range fns {
				out = append(out, fn.T)
			}
			for _, sorted := range []bool{false, true} {
				// Sorted: the input arrives in the first spec's order, so
				// with properties on its groups take the presorted path.
				rows, keys := in.rows, (&windowGroup{partitionBy: specs[0].part, orderBy: specs[0].order}).sortKeys(-1)
				if sorted {
					if len(keys) == 0 {
						continue
					}
					rows = append([][]types.Datum{}, in.rows...)
					sortRows(rows, keys)
				}
				want := make([][]types.Datum, len(fns))
				for i, fn := range fns {
					want[i] = refWindow(fn, rows)
				}
				for _, budget := range []int64{0, storeBytes(rows, oracleTypes) / 3} {
					for _, props := range []bool{true, false} {
						name := fmt.Sprintf("rows=%d specs=%d.. sorted=%v budget=%d props=%v", len(rows), s0, sorted, budget, props)
						env := newSpillEnv(budget)
						env.ctx.PropsPlanning = props
						var input Operator = &rowsOp{ts: oracleTypes, rows: in.rows, batch: in.batch}
						if sorted {
							input = &SortOp{Input: input, Keys: keys, Ctx: env.ctx}
						}
						got, err := Drain(&WindowOp{Input: input, Fns: fns, Out: out, Ctx: env.ctx})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if leaks := env.leakedFiles(t); len(leaks) != 0 {
							t.Errorf("%s: leaked scratch files %v", name, leaks)
						}
						if used := env.ctx.Mem.UsedBytes(); used != 0 {
							t.Errorf("%s: %d bytes still reserved after Close", name, used)
						}
						if env.ctx.Mem.SpilledBytes() > 0 {
							spilledRuns++
						} else if budget > 256 {
							t.Errorf("%s: a third of the stored bytes as budget did not spill", name)
						}
						if len(got) != len(rows) {
							t.Fatalf("%s: %d rows out, %d in", name, len(got), len(rows))
						}
						inW := len(oracleTypes)
						for r, row := range got {
							// Arrival order: output row r is input row r plus
							// the function columns.
							if !rowsEqual([][]types.Datum{row[:inW]}, [][]types.Datum{rows[r]}) {
								t.Fatalf("%s: output row %d is %v, input row is %v", name, r, row[:inW], rows[r])
							}
							for i, fn := range fns {
								g, w := row[inW+i], want[i][r]
								if g.Null != w.Null || (!g.Null && g.Compare(w) != 0) {
									t.Fatalf("%s: row %d %s(%v) partition %v order %v: got %v, reference %v",
										name, r, fn.Fn, fn.Arg, fn.PartitionBy, fn.OrderBy, g, w)
								}
							}
						}
					}
				}
			}
		}
	}
	return spilledRuns
}

// TestWindowOracle is the fixed-seed run; the randomized twin lives under
// -tags stress (window_stress_test.go).
func TestWindowOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the oracle sweep runs under make window")
	}
	if n := runWindowOracle(t, rand.New(rand.NewSource(17))); n == 0 {
		t.Error("no run spilled: the external pass went untested")
	}
}

// comparatorDatums are the values the comparator property draws from, per
// column type: NULLs, ties, NaN, negative zero, empty strings and decimals
// of several magnitudes.
func comparatorDatums(rng *rand.Rand, t types.T, n int) *vector.Vector {
	v := vector.New(t, n)
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			v.SetNull(i)
			continue
		}
		switch t.Kind {
		case types.Float64:
			v.F64[i] = []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -1.5, math.Inf(1), math.Inf(-1), 2}[rng.Intn(8)]
		case types.String:
			v.Str[i] = []string{"", "a", "A", "ab", "b", "\x00", "é", "10", "9"}[rng.Intn(9)]
		case types.Decimal:
			v.I64[i] = []int64{0, 1, -1, 10, 100, 1000, -1000, 99999, 150}[rng.Intn(9)]
		default:
			v.I64[i] = int64(rng.Intn(5) - 2)
		}
	}
	return v
}

// runComparatorProperty checks that the vector comparison kernels order any
// two rows exactly as compareKey orders their datums: CompareRow between any
// two columns — same-typed (the raw paths) and mixed (the datum fallback) —
// and the resolved Comparator within each column.
func runComparatorProperty(t *testing.T, rng *rand.Rand) {
	ts := []types.T{types.TBool, types.TInt, types.TBigint, types.TDouble, types.TString,
		types.TDecimal(9, 2), types.TDecimal(9, 0), types.TDecimal(12, 4), types.TDate, types.TTimestamp}
	const n = 24
	for _, at := range ts {
		for _, bt := range ts {
			a, b := comparatorDatums(rng, at, n), comparatorDatums(rng, bt, n)
			for _, k := range []plan.SortKey{{}, {Desc: true}, {NullsFirst: true}, {Desc: true, NullsFirst: true}} {
				resolved := a.Comparator(k.Desc, k.NullsFirst)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						want := compareKey(k, a.Get(i), b.Get(j))
						if got := a.CompareRow(i, b, j, k.Desc, k.NullsFirst); got != want {
							t.Fatalf("CompareRow %s %v vs %s %v under %+v: %d, compareKey %d", at, a.Get(i), bt, b.Get(j), k, got, want)
						}
						want = compareKey(k, a.Get(i), a.Get(j))
						if got := resolved(int32(i), int32(j)); got != want {
							t.Fatalf("Comparator %s %v vs %v under %+v: %d, compareKey %d", at, a.Get(i), a.Get(j), k, got, want)
						}
					}
				}
			}
		}
	}
}

func TestVectorComparatorMatchesCompareKey(t *testing.T) {
	runComparatorProperty(t, rand.New(rand.NewSource(19)))
}

// cancelAtEOF is an input that cancels the query as it reports end of
// stream: the moment a blocking operator stops draining and starts to
// compute.
type cancelAtEOF struct {
	Operator
	cancel context.CancelFunc
}

func (c *cancelAtEOF) Next() (*vector.Batch, error) {
	b, err := c.Operator.Next()
	if b == nil && err == nil {
		c.cancel()
	}
	return b, err
}

// seqSource emits n rows of (i mod 1000, (i*7919) mod n, i) without holding
// them.
type seqSource struct{ n, pos int }

var seqSourceTypes = []types.T{types.TBigint, types.TBigint, types.TBigint}

func (s *seqSource) Types() []types.T { return seqSourceTypes }
func (s *seqSource) Open() error      { s.pos = 0; return nil }
func (s *seqSource) Close() error     { return nil }
func (s *seqSource) Next() (*vector.Batch, error) {
	if s.pos >= s.n {
		return nil, nil
	}
	n := min(vector.BatchSize, s.n-s.pos)
	b := vector.NewBatch(seqSourceTypes, n)
	for i := 0; i < n; i++ {
		r := int64(s.pos + i)
		b.Cols[0].I64[i], b.Cols[1].I64[i], b.Cols[2].I64[i] = r%1000, (r*7919)%int64(s.n), r
	}
	b.N = n
	s.pos += n
	return b, nil
}

// TestCancelInsideBlockingPhase cancels a query between the drain and the
// compute of a million-row sort and window, resident and spilling: the sort
// passes and the partition loop must notice — before this they ran to
// completion and the operator went on to emit — and Close must leave no
// scratch file and no reserved byte.
func TestCancelInsideBlockingPhase(t *testing.T) {
	rows := 1 << 20
	if testing.Short() {
		rows = 1 << 16
	}
	keys := []plan.SortKey{{Col: 1}}
	builds := map[string]func(in Operator, ctx *Context) Operator{
		"sort": func(in Operator, ctx *Context) Operator { return &SortOp{Input: in, Keys: keys, Ctx: ctx} },
		"window": func(in Operator, ctx *Context) Operator {
			return &WindowOp{Input: in, Ctx: ctx, Out: append(append([]types.T{}, seqSourceTypes...), types.TBigint),
				Fns: []plan.WindowFn{{Fn: "rank", PartitionBy: []int{0}, OrderBy: keys, T: types.TBigint}}}
		},
		// One partition in arrival order: no sort runs, only the partition
		// loop can notice.
		"window-unsorted": func(in Operator, ctx *Context) Operator {
			return &WindowOp{Input: in, Ctx: ctx, Out: append(append([]types.T{}, seqSourceTypes...), types.TBigint),
				Fns: []plan.WindowFn{{Fn: "count", T: types.TBigint}}}
		},
	}
	for name, build := range builds {
		for _, budget := range []int64{0, 1 << 20} {
			env := newSpillEnv(budget)
			goCtx, cancel := context.WithCancel(context.Background())
			env.ctx.GoCtx = goCtx
			op := build(&cancelAtEOF{Operator: &seqSource{n: rows}, cancel: cancel}, env.ctx)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			b, err := op.Next()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s budget=%d: Next after cancellation returned batch=%v err=%v, want context.Canceled", name, budget, b != nil, err)
			}
			if budget > 0 && env.ctx.Mem.SpilledBytes() == 0 {
				t.Errorf("%s budget=%d: did not spill before the cancellation", name, budget)
			}
			op.Close()
			cancel()
			if leaks := env.leakedFiles(t); len(leaks) != 0 {
				t.Errorf("%s budget=%d: leaked scratch files %v", name, budget, leaks)
			}
			if used := env.ctx.Mem.UsedBytes(); used != 0 {
				t.Errorf("%s budget=%d: %d bytes still reserved after Close", name, budget, used)
			}
		}
	}
}
