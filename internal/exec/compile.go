package exec

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/types"
)

// Compiler translates logical plans into operator trees (the "physical
// plan" and "task compiler" stages of paper Figure 2). Scans are delegated
// to the caller, which knows the storage layer, snapshots and LLAP wiring.
type Compiler struct {
	Ctx         *Context
	MakeScan    func(s *plan.Scan) (Operator, error)
	MakeForeign func(f *plan.ForeignScan) (Operator, error)
}

// Compile builds the operator tree for a logical plan.
func (c *Compiler) Compile(r plan.Rel) (Operator, error) {
	switch x := r.(type) {
	case *plan.Scan:
		if c.MakeScan == nil {
			return nil, fmt.Errorf("exec: no scan factory configured")
		}
		return c.MakeScan(x)

	case *plan.ForeignScan:
		if c.MakeForeign == nil {
			return nil, fmt.Errorf("exec: no foreign scan factory configured for %s", x.Handler)
		}
		return c.MakeForeign(x)

	case *plan.Values:
		ts := x.Types
		if ts == nil && len(x.Rows) > 0 {
			for _, d := range x.Rows[0] {
				ts = append(ts, types.T{Kind: d.K})
			}
		}
		return &ValuesOp{Rows: x.Rows, Ts: ts}, nil

	case *plan.Filter:
		in, err := c.Compile(x.Input)
		if err != nil {
			return nil, err
		}
		pred, err := Compile(x.Cond, in.Types())
		if err != nil {
			return nil, err
		}
		return &FilterOp{Input: in, Pred: pred}, nil

	case *plan.Project:
		in, err := c.Compile(x.Input)
		if err != nil {
			return nil, err
		}
		exprs, err := CompileAll(x.Exprs, in.Types())
		if err != nil {
			return nil, err
		}
		out := make([]types.T, len(exprs))
		for i, e := range exprs {
			out[i] = e.T
		}
		return &ProjectOp{Input: in, Exprs: exprs, Out: out}, nil

	case *plan.Join:
		return c.compileJoin(x)

	case *plan.Aggregate:
		in, err := c.Compile(x.Input)
		if err != nil {
			return nil, err
		}
		groups, err := CompileAll(x.GroupBy, in.Types())
		if err != nil {
			return nil, err
		}
		aggs, err := CompileAggs(x.Aggs, in.Types())
		if err != nil {
			return nil, err
		}
		out := make([]types.T, 0, len(x.Schema()))
		for _, f := range x.Schema() {
			out = append(out, f.T)
		}
		return &HashAggOp{Input: in, GroupExprs: groups, Aggs: aggs, GroupingSets: x.GroupingSets, Out: out, Ctx: c.Ctx}, nil

	case *plan.Window:
		in, err := c.Compile(x.Input)
		if err != nil {
			return nil, err
		}
		out := make([]types.T, 0, len(x.Schema()))
		for _, f := range x.Schema() {
			out = append(out, f.T)
		}
		return &WindowOp{Input: in, Fns: x.Fns, Out: out, Ctx: c.Ctx}, nil

	case *plan.Sort:
		in, err := c.Compile(x.Input)
		if err != nil {
			return nil, err
		}
		return &SortOp{Input: in, Keys: x.Keys, Ctx: c.Ctx}, nil

	case *plan.Limit:
		// LIMIT 0 needs no input at all: emit an empty result with the
		// subtree's schema and skip compiling (and ever running) the
		// input.
		if x.N == 0 {
			var ts []types.T
			for _, f := range x.Schema() {
				ts = append(ts, f.T)
			}
			return &ValuesOp{Ts: ts}, nil
		}
		// ORDER BY + LIMIT [OFFSET] fuses into TopN: the heap keeps
		// offset+limit rows and emission skips the offset.
		if s, ok := x.Input.(*plan.Sort); ok {
			in, err := c.Compile(s.Input)
			if err != nil {
				return nil, err
			}
			return &TopNOp{Input: in, Keys: s.Keys, N: x.N, Offset: x.Offset, Ctx: c.Ctx}, nil
		}
		in, err := c.Compile(x.Input)
		if err != nil {
			return nil, err
		}
		return &LimitOp{Input: in, N: x.N, Offset: x.Offset}, nil

	case *plan.Spool:
		in, err := c.Compile(x.Input)
		if err != nil {
			return nil, err
		}
		return &SpoolOp{ID: x.ID, Input: in, Ctx: c.Ctx}, nil

	case *plan.SetOp:
		l, err := c.Compile(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.Compile(x.Right)
		if err != nil {
			return nil, err
		}
		if x.Kind == plan.Union && x.All {
			return &UnionAllOp{Inputs: []Operator{l, r}}, nil
		}
		return &SetOpOp{Kind: x.Kind, All: x.All, Left: l, Right: r, Ctx: c.Ctx}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T", r)
}

// compileJoin splits the join condition into equi-key pairs and a residual.
func (c *Compiler) compileJoin(j *plan.Join) (Operator, error) {
	left, err := c.Compile(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.Compile(j.Right)
	if err != nil {
		return nil, err
	}
	leftW := len(left.Types())
	combined := append(append([]types.T{}, left.Types()...), right.Types()...)

	var leftKeys, rightKeys []*CompiledExpr
	var residual []plan.Rex
	for _, conj := range plan.Conjuncts(j.Cond) {
		lk, rk, ok := equiPair(conj, leftW)
		if !ok {
			if !plan.IsLiteralTrue(conj) {
				residual = append(residual, conj)
			}
			continue
		}
		le, err := Compile(lk, left.Types())
		if err != nil {
			return nil, err
		}
		re, err := Compile(plan.ShiftCols(rk, -leftW), right.Types())
		if err != nil {
			return nil, err
		}
		leftKeys = append(leftKeys, le)
		rightKeys = append(rightKeys, re)
	}
	var res *CompiledExpr
	if cond := plan.AndAll(residual); cond != nil {
		e, err := Compile(cond, combined)
		if err != nil {
			return nil, err
		}
		res = e
	}
	op := &HashJoinOp{
		Left: left, Right: right, Kind: j.Kind,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		Residual: res, Ctx: c.Ctx,
	}
	if j.ReducerID != 0 && c.Ctx != nil && len(rightKeys) > 0 {
		op.BuildFilter = c.Ctx.RegisterFilter(j.ReducerID)
	}
	return op, nil
}

// equiPair recognizes "leftExpr = rightExpr" conjuncts where each side
// references exactly one input.
func equiPair(conj plan.Rex, leftW int) (plan.Rex, plan.Rex, bool) {
	f, ok := conj.(*plan.Func)
	if !ok || f.Op != "=" || len(f.Args) != 2 {
		return nil, nil, false
	}
	side := func(e plan.Rex) int {
		bits := map[int]bool{}
		plan.InputBits(e, bits)
		if len(bits) == 0 {
			return 0 // constant: belongs to neither
		}
		allLeft, allRight := true, true
		for i := range bits {
			if i >= leftW {
				allLeft = false
			} else {
				allRight = false
			}
		}
		switch {
		case allLeft:
			return -1
		case allRight:
			return 1
		default:
			return 0
		}
	}
	a, b := side(f.Args[0]), side(f.Args[1])
	switch {
	case a == -1 && b == 1:
		return f.Args[0], f.Args[1], true
	case a == 1 && b == -1:
		return f.Args[1], f.Args[0], true
	}
	return nil, nil, false
}
