package vector

import (
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestVectorSetGetRoundTrip(t *testing.T) {
	cases := []struct {
		typ types.T
		d   types.Datum
	}{
		{types.TInt, types.NewInt(42)},
		{types.TBigint, types.NewBigint(-7)},
		{types.TDouble, types.NewDouble(2.5)},
		{types.TString, types.NewString("hello")},
		{types.TBool, types.NewBool(true)},
		{types.TDate, types.NewDate(17000)},
		{types.TDecimal(7, 2), types.NewDecimal(1234, 2)},
	}
	for _, c := range cases {
		v := New(c.typ, 4)
		v.Set(2, c.d)
		got := v.Get(2)
		if got.Compare(c.d) != 0 {
			t.Errorf("%s: got %v want %v", c.typ, got, c.d)
		}
	}
}

func TestVectorNulls(t *testing.T) {
	v := New(types.TInt, 3)
	if v.IsNull(1) {
		t.Error("fresh vector should have no nulls")
	}
	v.Set(1, types.NullOf(types.Int32))
	if !v.IsNull(1) || v.IsNull(0) {
		t.Error("null mask wrong after SetNull")
	}
	v.Set(1, types.NewInt(9))
	if v.IsNull(1) || v.Get(1).I != 9 {
		t.Error("overwriting a null should clear the mask")
	}
}

func TestVectorDecimalRescale(t *testing.T) {
	v := New(types.TDecimal(10, 3), 1)
	v.Set(0, types.NewDecimal(15, 1)) // 1.5 -> 1.500
	if v.I64[0] != 1500 {
		t.Errorf("rescale up: %d", v.I64[0])
	}
	v.Set(0, types.NewBigint(2)) // 2 -> 2.000
	if v.I64[0] != 2000 {
		t.Errorf("int into decimal: %d", v.I64[0])
	}
}

func TestVectorResize(t *testing.T) {
	v := New(types.TString, 2)
	v.Set(0, types.NewString("a"))
	v.SetNull(1)
	v.Resize(5)
	if v.Len() != 5 || v.Str[0] != "a" || !v.IsNull(1) || v.IsNull(4) {
		t.Errorf("resize lost data: len=%d", v.Len())
	}
	v.Resize(1)
	if v.Len() != 1 || v.Str[0] != "a" {
		t.Error("shrink lost data")
	}
}

func TestBatchSelectionAndCompact(t *testing.T) {
	b := NewBatch([]types.T{types.TInt, types.TString}, 8)
	for i := 0; i < 8; i++ {
		b.Cols[0].Set(i, types.NewInt(int32(i)))
		b.Cols[1].Set(i, types.NewString(string(rune('a'+i))))
	}
	b.Sel = []int{1, 3, 5}
	b.N = 3
	row := b.Row(1)
	if row[0].I != 3 || row[1].S != "d" {
		t.Errorf("Row(1) = %v", row)
	}
	b.Compact()
	if b.Sel != nil || b.N != 3 {
		t.Fatal("compact did not clear selection")
	}
	if b.Cols[0].I64[0] != 1 || b.Cols[0].I64[1] != 3 || b.Cols[0].I64[2] != 5 {
		t.Errorf("compact ints: %v", b.Cols[0].I64[:3])
	}
	if b.Cols[1].Str[2] != "f" {
		t.Errorf("compact strings: %v", b.Cols[1].Str[:3])
	}
}

func TestBatchCompactWithNulls(t *testing.T) {
	b := NewBatch([]types.T{types.TInt}, 4)
	b.Cols[0].Set(0, types.NewInt(0))
	b.Cols[0].SetNull(1)
	b.Cols[0].Set(2, types.NewInt(2))
	b.Cols[0].SetNull(3)
	b.Sel = []int{1, 2}
	b.N = 2
	b.Compact()
	if !b.Cols[0].IsNull(0) || b.Cols[0].IsNull(1) || b.Cols[0].I64[1] != 2 {
		t.Error("null mask not compacted correctly")
	}
}

func TestCopyRow(t *testing.T) {
	src := New(types.TString, 2)
	src.Set(0, types.NewString("x"))
	src.SetNull(1)
	dst := New(types.TString, 2)
	dst.CopyRow(0, src, 1)
	dst.CopyRow(1, src, 0)
	if !dst.IsNull(0) || dst.Str[1] != "x" {
		t.Error("CopyRow wrong")
	}
}

// Property: for any int64 values, storing then reading through the Datum
// interface is the identity.
func TestQuickBigintRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		v := New(types.TBigint, len(vals))
		for i, x := range vals {
			v.Set(i, types.NewBigint(x))
		}
		for i, x := range vals {
			if v.Get(i).I != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// kernelVectors returns one populated vector per representation, nulls at
// every third row.
func kernelVectors(n int) []*Vector {
	vs := []*Vector{New(types.TBigint, n), New(types.TDouble, n), New(types.TString, n), New(types.TDecimal(9, 2), n), New(types.TDate, n)}
	for _, v := range vs {
		for i := 0; i < n; i++ {
			switch {
			case i%3 == 2:
				v.SetNull(i)
			case v.Type.Kind == types.Float64:
				v.F64[i] = float64(i) / 2
			case v.Type.Kind == types.String:
				v.Str[i] = string(rune('a' + i%26))
			default:
				v.I64[i] = int64(i * 7)
			}
		}
	}
	return vs
}

func sameRow(a *Vector, i int, b *Vector, j int) bool {
	x, y := a.Get(i), b.Get(j)
	return x.Null == y.Null && (x.Null || x.Compare(y) == 0)
}

func TestAppendRowsAndGather(t *testing.T) {
	sel := []int{5, 0, 7, 2, 2}
	for _, src := range kernelVectors(8) {
		dst := New(src.Type, 0)
		if got := dst.AppendRows(src, nil, 3); got < 3*8 {
			t.Errorf("%s: AppendRows reports %d bytes for 3 rows", src.Type, got)
		}
		dst.AppendRows(src, sel, len(sel))
		want := append([]int{0, 1, 2}, sel...)
		if dst.Len() != len(want) {
			t.Fatalf("%s: appended length %d, want %d", src.Type, dst.Len(), len(want))
		}
		for i, r := range want {
			if !sameRow(dst, i, src, r) {
				t.Errorf("%s: appended row %d = %v, want source row %d = %v", src.Type, i, dst.Get(i), r, src.Get(r))
			}
		}

		// Gather overwrites a reused vector completely: values, NULLs from
		// the source, NULLs from negative indexes, and stale NULL flags.
		out := New(src.Type, 6)
		for i := 0; i < 6; i++ {
			out.SetNull(i)
		}
		idx := []int32{4, -1, 2, 0}
		out.Gather(1, src, idx)
		for k, r := range idx {
			if r < 0 {
				if !out.IsNull(1 + k) {
					t.Errorf("%s: negative index gathered %v, want NULL", src.Type, out.Get(1+k))
				}
			} else if !sameRow(out, 1+k, src, int(r)) {
				t.Errorf("%s: gathered row %d = %v, want %v", src.Type, k, out.Get(1+k), src.Get(int(r)))
			}
		}
		if !out.IsNull(0) || !out.IsNull(5) {
			t.Errorf("%s: Gather wrote outside its range", src.Type)
		}
	}
	// A fresh destination without a null mask gets one only when needed.
	src := kernelVectors(8)[0]
	out := New(types.TBigint, 2)
	out.Gather(0, src, []int32{0, 1})
	if out.Nulls != nil && (out.Nulls[0] || out.Nulls[1]) {
		t.Error("gathering non-null rows produced NULLs")
	}
	out.Gather(0, New(types.TBigint, 0), []int32{-1, -1})
	if !out.IsNull(0) || !out.IsNull(1) {
		t.Error("gathering -1 from an empty vector should null-extend")
	}
}

// Mismatched representations — a declared type that differs from the vector
// actually delivered — take rawCopyable's fallback and convert exactly like
// Set(Get()), row by row: decimal scale up and down, integers into doubles
// and decimals, under a selection vector, with NULLs and null-extension.
func TestAppendRowsAndGatherConvert(t *testing.T) {
	fill := func(typ types.T, vals ...int64) *Vector {
		v := New(typ, len(vals)+1)
		for i, x := range vals {
			v.I64[i] = x
		}
		v.SetNull(len(vals))
		return v
	}
	for _, c := range []struct {
		name string
		to   types.T
		from *Vector
		raw  bool
		want []float64 // value of each source row once converted
	}{
		{"decimal scale up", types.TDecimal(9, 3), fill(types.TDecimal(9, 1), 15, 20, -5), false, []float64{1.5, 2, -0.5}},
		{"decimal scale down", types.TDecimal(9, 1), fill(types.TDecimal(9, 3), 1500, 2000, -500), false, []float64{1.5, 2, -0.5}},
		{"int into double", types.TDouble, fill(types.TInt, 7, -3, 0), false, []float64{7, -3, 0}},
		{"bigint into double", types.TDouble, fill(types.TBigint, 1<<40, 2, 3), false, []float64{1 << 40, 2, 3}},
		{"decimal into double", types.TDouble, fill(types.TDecimal(9, 1), 15, 20, -5), false, []float64{1.5, 2, -0.5}},
		{"bigint into decimal", types.TDecimal(9, 2), fill(types.TBigint, 4, -1, 0), false, []float64{4, -1, 0}},
		{"int into bigint", types.TBigint, fill(types.TInt, 7, -3, 0), true, []float64{7, -3, 0}},
		{"same decimal", types.TDecimal(9, 2), fill(types.TDecimal(9, 2), 150, 200, -50), true, []float64{1.5, 2, -0.5}},
	} {
		if got := rawCopyable(c.to, c.from.Type); got != c.raw {
			t.Errorf("%s: rawCopyable = %v, want %v", c.name, got, c.raw)
		}
		check := func(op string, dst *Vector, i, srcRow int) {
			t.Helper()
			ref := New(c.to, 1)
			ref.Set(0, c.from.Get(srcRow))
			if !sameRow(dst, i, ref, 0) {
				t.Errorf("%s: %s row %d = %v, want Set(Get()) = %v", c.name, op, i, dst.Get(i), ref.Get(0))
			}
			if srcRow == len(c.want) {
				if !dst.IsNull(i) {
					t.Errorf("%s: %s row %d = %v, want NULL", c.name, op, i, dst.Get(i))
				}
			} else if got := dst.Get(i).Float(); got != c.want[srcRow] {
				t.Errorf("%s: %s row %d = %v, want %v", c.name, op, i, got, c.want[srcRow])
			}
		}
		sel := []int{3, 1, 1, 0}
		dst := New(c.to, 0)
		dst.AppendRows(c.from, nil, 4)
		dst.AppendRows(c.from, sel, len(sel))
		for i, r := range append([]int{0, 1, 2, 3}, sel...) {
			check("AppendRows", dst, i, r)
		}
		out := New(c.to, 5)
		idx := []int32{2, -1, 3, 0}
		out.Gather(1, c.from, idx)
		for k, r := range idx {
			if r < 0 {
				if !out.IsNull(1 + k) {
					t.Errorf("%s: Gather of -1 = %v, want NULL", c.name, out.Get(1+k))
				}
				continue
			}
			check("Gather", out, 1+k, int(r))
		}
	}
}

func TestEqRowMatchesDatumCompare(t *testing.T) {
	a, b := kernelVectors(9), kernelVectors(9)
	// Mixed kinds too: INT vs BIGINT raw, BIGINT vs DECIMAL and DOUBLE by
	// value, scales that differ.
	ints := New(types.TInt, 9)
	dec1 := New(types.TDecimal(9, 1), 9)
	for i := 0; i < 9; i++ {
		ints.I64[i] = int64(i * 7)
		dec1.I64[i] = int64(i * 70)
	}
	pairs := [][2]*Vector{{ints, a[0]}, {a[0], dec1}, {dec1, a[3]}, {a[1], a[0]}}
	for k := range a {
		pairs = append(pairs, [2]*Vector{a[k], b[k]})
	}
	for _, p := range pairs {
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				x, y := p[0].Get(i), p[1].Get(j)
				want := !x.Null && !y.Null && x.Compare(y) == 0
				if got := p[0].EqRow(i, p[1], j); got != want {
					t.Errorf("%s[%d]=%v vs %s[%d]=%v: EqRow %v, want %v", p[0].Type, i, x, p[1].Type, j, y, got, want)
				}
			}
		}
	}
}

// Kernel microbenchmarks (ROADMAP item 1, per layer): the three kernels the
// columnar hash join is made of, per row.

func benchKernel(b *testing.B, rows int, run func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

func BenchmarkGather(b *testing.B) {
	const table = 1 << 16
	idx := make([]int32, BatchSize)
	for i := range idx {
		idx[i] = int32(i * 7919 % table)
	}
	for _, t := range []types.T{types.TBigint, types.TString} {
		src := New(t, table)
		for i := 0; i < table; i++ {
			src.Set(i, types.Datum{K: t.Kind, I: int64(i), S: "v"})
		}
		dst := New(t, BatchSize)
		b.Run(t.String(), func(b *testing.B) {
			benchKernel(b, BatchSize, func() { dst.Gather(0, src, idx) })
		})
	}
}

func BenchmarkAppendRows(b *testing.B) {
	sel := make([]int, BatchSize/2)
	for i := range sel {
		sel[i] = 2 * i
	}
	src := New(types.TBigint, BatchSize)
	for _, c := range []struct {
		name string
		sel  []int
		n    int
	}{{"dense", nil, BatchSize}, {"selected", sel, len(sel)}} {
		b.Run(c.name, func(b *testing.B) {
			dst := New(types.TBigint, 0)
			benchKernel(b, c.n, func() {
				if dst.Len() >= 1<<20 {
					dst = New(types.TBigint, 0)
				}
				dst.AppendRows(src, c.sel, c.n)
			})
		})
	}
}

var eqSink int

func BenchmarkEqRow(b *testing.B) {
	for _, t := range []types.T{types.TBigint, types.TString} {
		x, y := New(t, BatchSize), New(t, BatchSize)
		for i := 0; i < BatchSize; i++ {
			d := types.Datum{K: t.Kind, I: int64(i % 64), S: "key-0123"}
			x.Set(i, d)
			y.Set(i, d)
		}
		b.Run(t.String(), func(b *testing.B) {
			benchKernel(b, BatchSize, func() {
				for i := 0; i < BatchSize; i++ {
					if x.EqRow(i, y, i) {
						eqSink++
					}
				}
			})
		})
	}
}
