package opt

import (
	"repro/internal/plan"
)

// ---- Cost-based join reordering (paper §4.1) ----

// reorderJoins flattens maximal inner-join trees and rebuilds them greedily
// by estimated cardinality, attaching every join predicate at the earliest
// point both sides are available.
func (o *Optimizer) reorderJoins(rel plan.Rel) plan.Rel {
	rel = rewriteChildren(rel, o.reorderJoins)
	j, ok := rel.(*plan.Join)
	if !ok || (j.Kind != plan.Inner && j.Kind != plan.Cross) {
		return rel
	}
	inputs, offsets, conjs := flattenJoin(j)
	if len(inputs) < 3 {
		return rel
	}
	totalW := 0
	for _, in := range inputs {
		totalW += len(in.Schema())
	}

	type pred struct {
		rex  plan.Rex
		bits map[int]bool
		used bool
	}
	preds := make([]*pred, len(conjs))
	for i, c := range conjs {
		bits := map[int]bool{}
		plan.InputBits(c, bits)
		preds[i] = &pred{rex: c, bits: bits}
	}
	inputOf := func(globalCol int) int {
		for i := len(offsets) - 1; i >= 0; i-- {
			if globalCol >= offsets[i] {
				return i
			}
		}
		return 0
	}

	// placed marks the inputs already in the tree. Candidates are always
	// visited in input order, so equal estimates resolve to the earliest
	// input and two compiles of one statement build the same tree.
	placed := make([]bool, len(inputs))
	// Start from the smallest input.
	start, best := -1, 0.0
	for i := range inputs {
		est := o.RowEstimate(inputs[i])
		if start < 0 || est < best {
			start, best = i, est
		}
	}
	current := inputs[start]
	placed[start] = true
	// mapping: global ordinal -> current plan ordinal (-1 if absent).
	mapping := make([]int, totalW)
	for i := range mapping {
		mapping[i] = -1
	}
	for i := 0; i < len(inputs[start].Schema()); i++ {
		mapping[offsets[start]+i] = i
	}

	attachPreds := func(cur plan.Rel) (plan.Rel, plan.Rex) {
		var conds []plan.Rex
		for _, p := range preds {
			if p.used {
				continue
			}
			ok := true
			for g := range p.bits {
				if mapping[g] < 0 {
					ok = false
					break
				}
			}
			if ok {
				p.used = true
				conds = append(conds, plan.RemapCols(p.rex, func(g int) int { return mapping[g] }))
			}
		}
		return cur, plan.AndAll(conds)
	}

	for n := 1; n < len(inputs); n++ {
		// Prefer a connected input minimizing estimated join output.
		next, nextCost := -1, 0.0
		connected := false
		for i := range inputs {
			if placed[i] {
				continue
			}
			conn := false
			for _, p := range preds {
				if p.used {
					continue
				}
				touchesNew, touchesCur := false, false
				for g := range p.bits {
					if inputOf(g) == i {
						touchesNew = true
					} else if mapping[g] >= 0 {
						touchesCur = true
					}
				}
				if touchesNew && touchesCur {
					conn = true
					break
				}
			}
			est := o.RowEstimate(inputs[i])
			if next < 0 || (conn && !connected) || (conn == connected && est < nextCost) {
				next, nextCost, connected = i, est, conn
			}
		}
		curW := len(current.Schema())
		for i := 0; i < len(inputs[next].Schema()); i++ {
			mapping[offsets[next]+i] = curW + i
		}
		joined := &plan.Join{Kind: plan.Inner, Left: current, Right: inputs[next]}
		placed[next] = true
		_, cond := attachPreds(joined)
		if cond == nil {
			joined.Kind = plan.Cross
		} else {
			joined.Cond = cond
		}
		current = joined
	}
	// Any predicates left (shouldn't happen) become a filter.
	var leftover []plan.Rex
	for _, p := range preds {
		if !p.used {
			leftover = append(leftover, plan.RemapCols(p.rex, func(g int) int { return mapping[g] }))
		}
	}
	if cond := plan.AndAll(leftover); cond != nil {
		current = &plan.Filter{Input: current, Cond: cond}
	}
	// Restore the original column order.
	exprs := make([]plan.Rex, totalW)
	names := make([]string, totalW)
	schema := current.Schema()
	for g := 0; g < totalW; g++ {
		exprs[g] = &plan.ColRef{Idx: mapping[g], T: schema[mapping[g]].T}
	}
	orig := j.Schema()
	for g := range names {
		names[g] = orig[g].Name
	}
	return &plan.Project{Input: current, Exprs: exprs, Names: names}
}

// flattenJoin collects the leaf inputs of a maximal inner/cross join tree,
// their global column offsets, and all join conjuncts over the global row.
// A join node's condition refers to its (left ++ right) concatenation,
// which occupies a contiguous global range starting at the node's base
// offset, so shifting by the base globalizes the ordinals.
func flattenJoin(j *plan.Join) (inputs []plan.Rel, offsets []int, conjs []plan.Rex) {
	var visit func(r plan.Rel, base int) int // returns width of r
	visit = func(r plan.Rel, base int) int {
		if jj, ok := r.(*plan.Join); ok && (jj.Kind == plan.Inner || jj.Kind == plan.Cross) && jj.ReducerID == 0 {
			lw := visit(jj.Left, base)
			rw := visit(jj.Right, base+lw)
			if jj.Cond != nil {
				for _, c := range plan.Conjuncts(jj.Cond) {
					conjs = append(conjs, plan.ShiftCols(c, base))
				}
			}
			return lw + rw
		}
		inputs = append(inputs, r)
		offsets = append(offsets, base)
		return len(r.Schema())
	}
	visit(j, 0)
	return inputs, offsets, conjs
}

// ---- Dynamic semijoin reduction (paper §4.6) ----

// addSemijoinReducers finds inner joins whose build side is much smaller
// than the probe side, and pushes a runtime filter of the build keys into
// the probe-side scan: partition-key probes get dynamic partition pruning,
// others get the min/max + Bloom index semijoin.
func (o *Optimizer) addSemijoinReducers(rel plan.Rel) plan.Rel {
	rel = rewriteChildren(rel, o.addSemijoinReducers)
	j, ok := rel.(*plan.Join)
	if !ok || (j.Kind != plan.Inner && j.Kind != plan.Semi) || j.ReducerID != 0 {
		return rel
	}
	buildRows := o.RowEstimate(j.Right)
	probeRows := o.RowEstimate(j.Left)
	if buildRows*4 >= probeRows || !hasFilter(j.Right) {
		return rel
	}
	leftW := len(j.Left.Schema())
	for _, c := range plan.Conjuncts(j.Cond) {
		fn, ok := c.(*plan.Func)
		if !ok || fn.Op != "=" || len(fn.Args) != 2 {
			continue
		}
		var probeCol *plan.ColRef
		for _, a := range fn.Args {
			if cr, ok := a.(*plan.ColRef); ok && cr.Idx < leftW {
				probeCol = cr
			}
		}
		if probeCol == nil {
			continue
		}
		id := o.allocReducer()
		newLeft, ok := bindReducer(j.Left, probeCol.Idx, id)
		if !ok {
			continue
		}
		return &plan.Join{Kind: j.Kind, Left: newLeft, Right: j.Right, Cond: j.Cond, ReducerID: id}
	}
	return rel
}

func (o *Optimizer) allocReducer() int {
	o.nextReducer++
	return o.nextReducer
}

func hasFilter(rel plan.Rel) bool {
	switch x := rel.(type) {
	case *plan.Filter:
		return true
	case *plan.Scan:
		return len(x.Filter) > 0
	}
	for _, c := range rel.Children() {
		if hasFilter(c) {
			return true
		}
	}
	return false
}

// traceToScan resolves an output ordinal of rel down to a scan column.
func traceToScan(rel plan.Rel, ord int) (*plan.Scan, string, int, bool) {
	switch x := rel.(type) {
	case *plan.Scan:
		metaOff := 0
		if x.Meta {
			metaOff = 3
		}
		if ord < metaOff {
			return nil, "", -1, false
		}
		tcol := x.Cols[ord-metaOff]
		all := plan.TableCols(x.Table)
		partIdx := -1
		if tcol >= len(x.Table.Cols) {
			partIdx = tcol - len(x.Table.Cols)
		}
		return x, all[tcol].Name, partIdx, true
	case *plan.Filter:
		return traceToScan(x.Input, ord)
	case *plan.Spool:
		return traceToScan(x.Input, ord)
	case *plan.Project:
		if cr, ok := x.Exprs[ord].(*plan.ColRef); ok {
			return traceToScan(x.Input, cr.Idx)
		}
	case *plan.Join:
		lw := len(x.Left.Schema())
		if ord < lw {
			return traceToScan(x.Left, ord)
		}
		if x.Kind != plan.Semi && x.Kind != plan.Anti {
			return traceToScan(x.Right, ord-lw)
		}
	}
	return nil, "", -1, false
}

// bindReducer rewrites the path from rel down to the scan providing output
// ordinal ord, attaching the runtime filter there.
func bindReducer(rel plan.Rel, ord int, id int) (plan.Rel, bool) {
	switch x := rel.(type) {
	case *plan.Scan:
		metaOff := 0
		if x.Meta {
			metaOff = 3
		}
		if ord < metaOff {
			return rel, false
		}
		tcol := x.Cols[ord-metaOff]
		partIdx := -1
		if tcol >= len(x.Table.Cols) {
			partIdx = tcol - len(x.Table.Cols)
		}
		ns := *x
		ns.RF = append(append([]plan.RuntimeBind{}, x.RF...), plan.RuntimeBind{ID: id, Col: ord, PartKeyIdx: partIdx})
		return &ns, true
	case *plan.Filter:
		in, ok := bindReducer(x.Input, ord, id)
		if !ok {
			return rel, false
		}
		return &plan.Filter{Input: in, Cond: x.Cond}, true
	case *plan.Project:
		cr, ok := x.Exprs[ord].(*plan.ColRef)
		if !ok {
			return rel, false
		}
		in, ok := bindReducer(x.Input, cr.Idx, id)
		if !ok {
			return rel, false
		}
		return &plan.Project{Input: in, Exprs: x.Exprs, Names: x.Names}, true
	case *plan.Join:
		lw := len(x.Left.Schema())
		if ord < lw {
			in, ok := bindReducer(x.Left, ord, id)
			if !ok {
				return rel, false
			}
			return &plan.Join{Kind: x.Kind, Left: in, Right: x.Right, Cond: x.Cond, ReducerID: x.ReducerID}, true
		}
		if x.Kind == plan.Semi || x.Kind == plan.Anti {
			return rel, false
		}
		in, ok := bindReducer(x.Right, ord-lw, id)
		if !ok {
			return rel, false
		}
		return &plan.Join{Kind: x.Kind, Left: x.Left, Right: in, Cond: x.Cond, ReducerID: x.ReducerID}, true
	}
	return rel, false
}

// ---- Shared work optimization (paper §4.5) ----

// sharedWork replaces repeated identical subtrees with Spool nodes sharing
// one materialization. It merges equal parts of the plan only (a
// reuse-based approach, not an exhaustive equivalence search).
func (o *Optimizer) sharedWork(rel plan.Rel) plan.Rel {
	counts := map[string]int{}
	var walk func(r plan.Rel)
	walk = func(r plan.Rel) {
		counts[r.Digest()]++
		for _, c := range r.Children() {
			walk(c)
		}
	}
	walk(rel)
	ids := map[string]int{}
	next := 1
	var rewrite func(r plan.Rel) plan.Rel
	rewrite = func(r plan.Rel) plan.Rel {
		if worthSharing(r) {
			d := r.Digest()
			if counts[d] >= 2 {
				id, ok := ids[d]
				if !ok {
					id = next
					next++
					ids[d] = id
				}
				return &plan.Spool{ID: id, Input: r}
			}
		}
		return rewriteChildren(r, rewrite)
	}
	return rewrite(rel)
}

func worthSharing(r plan.Rel) bool {
	switch r.(type) {
	case *plan.Scan, *plan.Join, *plan.Aggregate, *plan.Filter, *plan.Project:
		return true
	}
	return false
}

// ---- Column pruning ----

// pruneColumns narrows scans to the columns the plan actually uses.
func (o *Optimizer) pruneColumns(rel plan.Rel) plan.Rel {
	need := make([]bool, len(rel.Schema()))
	for i := range need {
		need[i] = true
	}
	out, _ := o.prune(rel, need)
	return out
}

// prune returns a plan emitting a superset of the needed columns plus the
// old-to-new ordinal mapping (-1 when dropped).
func (o *Optimizer) prune(rel plan.Rel, need []bool) (plan.Rel, []int) {
	identity := func(n int) []int {
		m := make([]int, n)
		for i := range m {
			m[i] = i
		}
		return m
	}
	switch x := rel.(type) {
	case *plan.Scan:
		metaOff := 0
		if x.Meta {
			metaOff = 3
		}
		// Scan filters and runtime binds pin their columns.
		for _, f := range x.Filter {
			bits := map[int]bool{}
			plan.InputBits(f, bits)
			for i := range bits {
				need[i] = true
			}
		}
		for _, rf := range x.RF {
			need[rf.Col] = true
		}
		all := true
		for _, n := range need {
			if !n {
				all = false
			}
		}
		if all {
			return rel, identity(len(need))
		}
		mapping := make([]int, len(need))
		ns := *x
		ns.Cols = nil
		nsFields := 0
		for i := 0; i < metaOff; i++ {
			mapping[i] = i
			nsFields++
		}
		for i := metaOff; i < len(need); i++ {
			if need[i] {
				mapping[i] = nsFields
				ns.Cols = append(ns.Cols, x.Cols[i-metaOff])
				nsFields++
			} else {
				mapping[i] = -1
			}
		}
		remap := func(i int) int { return mapping[i] }
		ns.Filter = nil
		for _, f := range x.Filter {
			ns.Filter = append(ns.Filter, plan.RemapCols(f, remap))
		}
		ns.RF = nil
		for _, rf := range x.RF {
			ns.RF = append(ns.RF, plan.RuntimeBind{ID: rf.ID, Col: mapping[rf.Col], PartKeyIdx: rf.PartKeyIdx})
		}
		fresh := &plan.Scan{Table: ns.Table, Alias: ns.Alias, Cols: ns.Cols, Filter: ns.Filter, Meta: ns.Meta, RF: ns.RF}
		return fresh, mapping

	case *plan.Filter:
		childNeed := append([]bool{}, need...)
		bits := map[int]bool{}
		plan.InputBits(x.Cond, bits)
		for i := range bits {
			childNeed[i] = true
		}
		in, m := o.prune(x.Input, childNeed)
		cond := plan.RemapCols(x.Cond, func(i int) int { return m[i] })
		return &plan.Filter{Input: in, Cond: cond}, m

	case *plan.Project:
		childNeed := make([]bool, len(x.Input.Schema()))
		var keptExprs []plan.Rex
		var keptNames []string
		mapping := make([]int, len(x.Exprs))
		for i, e := range x.Exprs {
			if !need[i] {
				mapping[i] = -1
				continue
			}
			mapping[i] = len(keptExprs)
			keptExprs = append(keptExprs, e)
			if i < len(x.Names) {
				keptNames = append(keptNames, x.Names[i])
			} else {
				keptNames = append(keptNames, "")
			}
			bits := map[int]bool{}
			plan.InputBits(e, bits)
			for b := range bits {
				childNeed[b] = true
			}
		}
		in, m := o.prune(x.Input, childNeed)
		for i, e := range keptExprs {
			keptExprs[i] = plan.RemapCols(e, func(c int) int { return m[c] })
		}
		return &plan.Project{Input: in, Exprs: keptExprs, Names: keptNames}, mapping

	case *plan.Join:
		lw := len(x.Left.Schema())
		rw := len(x.Right.Schema())
		leftNeed := make([]bool, lw)
		rightNeed := make([]bool, rw)
		semi := x.Kind == plan.Semi || x.Kind == plan.Anti
		for i, n := range need {
			if !n {
				continue
			}
			if i < lw {
				leftNeed[i] = true
			} else if !semi {
				rightNeed[i-lw] = true
			}
		}
		if x.Cond != nil {
			bits := map[int]bool{}
			plan.InputBits(x.Cond, bits)
			for i := range bits {
				if i < lw {
					leftNeed[i] = true
				} else {
					rightNeed[i-lw] = true
				}
			}
		}
		inL, mL := o.prune(x.Left, leftNeed)
		inR, mR := o.prune(x.Right, rightNeed)
		newLW := len(inL.Schema())
		remap := func(i int) int {
			if i < lw {
				return mL[i]
			}
			return newLW + mR[i-lw]
		}
		var cond plan.Rex
		if x.Cond != nil {
			cond = plan.RemapCols(x.Cond, remap)
		}
		mapping := make([]int, len(need))
		for i := range mapping {
			if i < lw {
				mapping[i] = mL[i]
			} else if semi {
				mapping[i] = -1
			} else {
				if mR[i-lw] < 0 {
					mapping[i] = -1
				} else {
					mapping[i] = newLW + mR[i-lw]
				}
			}
		}
		return &plan.Join{Kind: x.Kind, Left: inL, Right: inR, Cond: cond, ReducerID: x.ReducerID}, mapping

	case *plan.Aggregate:
		childNeed := make([]bool, len(x.Input.Schema()))
		addBits := func(e plan.Rex) {
			if e == nil {
				return
			}
			bits := map[int]bool{}
			plan.InputBits(e, bits)
			for b := range bits {
				childNeed[b] = true
			}
		}
		for _, g := range x.GroupBy {
			addBits(g)
		}
		for _, a := range x.Aggs {
			addBits(a.Arg)
		}
		in, m := o.prune(x.Input, childNeed)
		remap := func(i int) int { return m[i] }
		groups := make([]plan.Rex, len(x.GroupBy))
		for i, g := range x.GroupBy {
			groups[i] = plan.RemapCols(g, remap)
		}
		aggs := make([]plan.AggCall, len(x.Aggs))
		for i, a := range x.Aggs {
			na := a
			if a.Arg != nil {
				na.Arg = plan.RemapCols(a.Arg, remap)
			}
			aggs[i] = na
		}
		return &plan.Aggregate{Input: in, GroupBy: groups, Aggs: aggs, GroupingSets: x.GroupingSets, Names: x.Names}, identity(len(need))

	case *plan.Sort:
		childNeed := append([]bool{}, need...)
		for _, k := range x.Keys {
			childNeed[k.Col] = true
		}
		in, m := o.prune(x.Input, childNeed)
		keys := make([]plan.SortKey, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = plan.SortKey{Col: m[k.Col], Desc: k.Desc, NullsFirst: k.NullsFirst}
		}
		return &plan.Sort{Input: in, Keys: keys}, m

	case *plan.Limit:
		in, m := o.prune(x.Input, need)
		return &plan.Limit{Input: in, N: x.N, Offset: x.Offset}, m

	case *plan.Spool:
		allNeed := make([]bool, len(x.Input.Schema()))
		for i := range allNeed {
			allNeed[i] = true
		}
		in, _ := o.prune(x.Input, allNeed)
		return &plan.Spool{ID: x.ID, Input: in}, identity(len(need))

	default:
		// Opaque nodes (SetOp, Window, Values, ForeignScan): keep schema,
		// still prune inside.
		out := rewriteChildren(rel, func(c plan.Rel) plan.Rel {
			allNeed := make([]bool, len(c.Schema()))
			for i := range allNeed {
				allNeed[i] = true
			}
			p, _ := o.prune(c, allNeed)
			return p
		})
		return out, identity(len(need))
	}
}
