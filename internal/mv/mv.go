// Package mv implements materialized view rewriting (paper §4.4): the
// optimizer matches Select-Project-Join-Aggregate query expressions against
// enabled materialized views and substitutes a scan of the materialization,
// re-aggregating on top (full containment; a residual filter covers views
// that are less selective than the query). Views are ordinary tables — they
// can live in Hive's native storage or any federated system (e.g. Druid).
package mv

import (
	"repro/internal/metastore"
	"repro/internal/plan"
	"repro/internal/types"
)

// spja is the canonical form of a Select-Project-Join-Aggregate block:
// every column is named "table.col" (sym), so two blocks over the same
// tables compare structurally regardless of join order.
type spja struct {
	tables  []string            // sorted full names (no duplicates allowed)
	conjs   map[string]plan.Rex // normalized digest -> normalized conjunct
	groups  []plan.Rex          // normalized group exprs, in view/query order
	aggs    []plan.AggCall      // normalized agg calls
	aggNode *plan.Aggregate     // original node (query side)
}

// sym is a Rex leaf naming a base-table column.
type sym struct {
	name string
	t    types.T
}

func (s *sym) Type() types.T  { return s.t }
func (s *sym) Digest() string { return s.name }

// extract canonicalizes a plan of shape Aggregate(Filter*(JoinTree(Scans)))
// (Projects of plain column refs are looked through). Returns false for
// any other shape.
func extract(rel plan.Rel) (*spja, bool) {
	agg, ok := rel.(*plan.Aggregate)
	if !ok || agg.GroupingSets != nil {
		return nil, false
	}
	syms, tables, conjs, ok := flatten(agg.Input)
	if !ok {
		return nil, false
	}
	out := &spja{tables: tables, conjs: map[string]plan.Rex{}, aggNode: agg}
	for _, c := range conjs {
		out.conjs[c.Digest()] = c
	}
	for _, g := range agg.GroupBy {
		ng, ok := normalize(g, syms)
		if !ok {
			return nil, false
		}
		out.groups = append(out.groups, ng)
	}
	for _, a := range agg.Aggs {
		na := a
		if a.Arg != nil {
			arg, ok := normalize(a.Arg, syms)
			if !ok {
				return nil, false
			}
			na.Arg = arg
		}
		out.aggs = append(out.aggs, na)
	}
	return out, true
}

// flatten resolves a join tree into per-column syms plus normalized
// conjuncts (join conditions and filters).
func flatten(rel plan.Rel) (syms []*sym, tables []string, conjs []plan.Rex, ok bool) {
	switch x := rel.(type) {
	case *plan.Scan:
		if x.Meta {
			return nil, nil, nil, false
		}
		name := x.Table.FullName()
		all := plan.TableCols(x.Table)
		for _, c := range x.Cols {
			syms = append(syms, &sym{name: name + "." + all[c].Name, t: all[c].Type})
		}
		for _, f := range x.Filter {
			nf, okc := normalize(f, syms)
			if !okc {
				return nil, nil, nil, false
			}
			conjs = append(conjs, nf)
		}
		return syms, []string{name}, conjs, true
	case *plan.Filter:
		syms, tables, conjs, ok = flatten(x.Input)
		if !ok {
			return nil, nil, nil, false
		}
		for _, c := range plan.Conjuncts(x.Cond) {
			nc, okc := normalize(c, syms)
			if !okc {
				return nil, nil, nil, false
			}
			conjs = append(conjs, nc)
		}
		return syms, tables, conjs, true
	case *plan.Project:
		inSyms, tables, conjs, ok := flatten(x.Input)
		if !ok {
			return nil, nil, nil, false
		}
		for _, e := range x.Exprs {
			cr, isCol := e.(*plan.ColRef)
			if !isCol {
				return nil, nil, nil, false
			}
			syms = append(syms, inSyms[cr.Idx])
		}
		return syms, tables, conjs, true
	case *plan.Join:
		if x.Kind != plan.Inner && x.Kind != plan.Cross {
			return nil, nil, nil, false
		}
		ls, lt, lc, lok := flatten(x.Left)
		rs, rt, rc, rok := flatten(x.Right)
		if !lok || !rok {
			return nil, nil, nil, false
		}
		syms = append(append([]*sym{}, ls...), rs...)
		for _, t := range append(lt, rt...) {
			for _, seen := range tables {
				if seen == t {
					return nil, nil, nil, false // self-join: bail out
				}
			}
			tables = append(tables, t)
		}
		conjs = append(append([]plan.Rex{}, lc...), rc...)
		if x.Cond != nil {
			for _, c := range plan.Conjuncts(x.Cond) {
				nc, okc := normalize(c, syms)
				if !okc {
					return nil, nil, nil, false
				}
				conjs = append(conjs, nc)
			}
		}
		return syms, tables, conjs, true
	}
	return nil, nil, nil, false
}

// normalize replaces ColRefs with syms.
func normalize(e plan.Rex, syms []*sym) (plan.Rex, bool) {
	switch x := e.(type) {
	case *plan.ColRef:
		if x.Idx >= len(syms) {
			return nil, false
		}
		return syms[x.Idx], true
	case *plan.Func:
		args := make([]plan.Rex, len(x.Args))
		for i, a := range x.Args {
			na, ok := normalize(a, syms)
			if !ok {
				return nil, false
			}
			args[i] = na
		}
		return &plan.Func{Op: x.Op, Args: args, T: x.T}, true
	default:
		return e, true
	}
}

// Rewriter matches queries against registered materialized views.
type Rewriter struct {
	MS *metastore.Metastore
	// AnalyzeView turns a view's stored SQL into a logical plan; injected
	// to avoid a dependency cycle with the analyzer's driver.
	AnalyzeView func(viewSQL, db string) (plan.Rel, error)
	// Rewrites counts successful substitutions (observability).
	Rewrites int
}

// Rewrite walks the plan and substitutes materialized views for contained
// SPJA blocks. Returns the rewritten plan and whether anything changed.
func (r *Rewriter) Rewrite(rel plan.Rel, db string) (plan.Rel, bool) {
	views := r.MS.MaterializedViews()
	if len(views) == 0 {
		return rel, false
	}
	changed := false
	var visit func(n plan.Rel) plan.Rel
	visit = func(n plan.Rel) plan.Rel {
		if agg, ok := n.(*plan.Aggregate); ok {
			if sub, ok := r.tryViews(agg, views, db); ok {
				changed = true
				return sub
			}
		}
		switch x := n.(type) {
		case *plan.Filter:
			return &plan.Filter{Input: visit(x.Input), Cond: x.Cond}
		case *plan.Project:
			return &plan.Project{Input: visit(x.Input), Exprs: x.Exprs, Names: x.Names}
		case *plan.Sort:
			return &plan.Sort{Input: visit(x.Input), Keys: x.Keys}
		case *plan.Limit:
			return &plan.Limit{Input: visit(x.Input), N: x.N, Offset: x.Offset}
		case *plan.Join:
			return &plan.Join{Kind: x.Kind, Left: visit(x.Left), Right: visit(x.Right), Cond: x.Cond, ReducerID: x.ReducerID}
		case *plan.SetOp:
			return &plan.SetOp{Kind: x.Kind, All: x.All, Left: visit(x.Left), Right: visit(x.Right)}
		}
		return n
	}
	out := visit(rel)
	return out, changed
}

// Fresh reports whether the view's contents reflect the current state of
// its source tables, or staleness is explicitly allowed (paper §4.4's
// staleness window, via the materialized.view.allow.stale property).
func (r *Rewriter) Fresh(view *metastore.Table) bool {
	if view.Props["materialized.view.allow.stale"] == "true" {
		return true
	}
	tm := r.MS.Txns()
	snap := tm.GetSnapshot()
	for tbl, wid := range view.SnapshotWriteIds {
		cur := tm.GetValidWriteIds(tbl, snap)
		if cur.HighWater != wid {
			return false
		}
	}
	return true
}

func (r *Rewriter) tryViews(agg *plan.Aggregate, views []*metastore.Table, db string) (plan.Rel, bool) {
	q, ok := extract(agg)
	if !ok {
		return nil, false
	}
	for _, view := range views {
		if !view.RewriteEnabled || !r.Fresh(view) {
			continue
		}
		vplan, err := r.AnalyzeView(view.ViewSQL, db)
		if err != nil {
			continue
		}
		// The analyzed view plan is typically Project(Aggregate(...)).
		vagg := findAggregate(vplan)
		if vagg == nil {
			continue
		}
		v, ok := extract(vagg)
		if !ok {
			continue
		}
		if sub, ok := r.substitute(q, v, view, vagg); ok {
			r.Rewrites++
			return sub, true
		}
	}
	return nil, false
}

func findAggregate(rel plan.Rel) *plan.Aggregate {
	if a, ok := rel.(*plan.Aggregate); ok {
		return a
	}
	kids := rel.Children()
	if len(kids) == 1 {
		// Only look through bare projections of the aggregate output.
		if p, ok := rel.(*plan.Project); ok {
			for _, e := range p.Exprs {
				if _, isCol := e.(*plan.ColRef); !isCol {
					return nil
				}
			}
		}
		return findAggregate(kids[0])
	}
	return nil
}

// substitute produces Aggregate'(Filter'(Scan(view))) when the query block
// is fully contained in the view.
func (r *Rewriter) substitute(q, v *spja, view *metastore.Table, vagg *plan.Aggregate) (plan.Rel, bool) {
	if !sameTables(q.tables, v.tables) {
		return nil, false
	}
	// View conjuncts must all appear in the query.
	for d := range v.conjs {
		if _, ok := q.conjs[d]; !ok {
			return nil, false
		}
	}
	// Residual query conjuncts must be computable from view outputs.
	// View outputs: group exprs (columns of the materialization, in
	// order), then agg values.
	outPos := map[string]int{}
	for i, g := range v.groups {
		outPos[g.Digest()] = i
	}
	var residual []plan.Rex
	for d, c := range q.conjs {
		if _, ok := v.conjs[d]; ok {
			continue
		}
		rc, ok := remapToView(c, outPos, view)
		if !ok {
			return nil, false
		}
		residual = append(residual, rc)
		_ = d
	}
	// Query groups must be view group columns (or exprs over them).
	scan := plan.NewScan(view, view.Name)
	viewFields := scan.Schema()
	var groups []plan.Rex
	for _, g := range q.groups {
		rg, ok := remapToView(g, outPos, view)
		if !ok {
			return nil, false
		}
		groups = append(groups, rg)
	}
	// Query aggs must be re-aggregations of view aggs.
	var aggs []plan.AggCall
	for _, qa := range q.aggs {
		pos := -1
		for i, va := range v.aggs {
			if va.Fn == qa.Fn && va.Distinct == qa.Distinct && argDigest(va) == argDigest(qa) {
				pos = i
				break
			}
		}
		if pos < 0 || qa.Distinct {
			return nil, false
		}
		viewCol := len(v.groups) + pos
		if viewCol >= len(viewFields) {
			return nil, false
		}
		ref := &plan.ColRef{Idx: viewCol, T: viewFields[viewCol].T}
		fn := qa.Fn
		switch qa.Fn {
		case "count":
			fn = "sum" // counts re-aggregate by summation
		case "sum", "min", "max":
		default:
			return nil, false // avg needs sum+count decomposition
		}
		aggs = append(aggs, plan.AggCall{Fn: fn, Arg: ref, T: qa.T})
	}
	var input plan.Rel = scan
	if cond := plan.AndAll(residual); cond != nil {
		input = &plan.Filter{Input: input, Cond: cond}
	}
	return &plan.Aggregate{Input: input, GroupBy: groups, Aggs: aggs, Names: q.aggNode.Names}, true
}

func argDigest(a plan.AggCall) string {
	if a.Arg == nil {
		return "*"
	}
	return a.Arg.Digest()
}

// remapToView rewrites a normalized expression so its sym leaves become
// ColRefs into the view scan, matching by the view's group expressions.
func remapToView(e plan.Rex, outPos map[string]int, view *metastore.Table) (plan.Rex, bool) {
	if pos, ok := outPos[e.Digest()]; ok {
		all := plan.TableCols(view)
		if pos >= len(all) {
			return nil, false
		}
		return &plan.ColRef{Idx: pos, T: all[pos].Type}, true
	}
	switch x := e.(type) {
	case *sym:
		return nil, false // base column not exposed by the view
	case *plan.Func:
		args := make([]plan.Rex, len(x.Args))
		for i, a := range x.Args {
			na, ok := remapToView(a, outPos, view)
			if !ok {
				return nil, false
			}
			args[i] = na
		}
		return &plan.Func{Op: x.Op, Args: args, T: x.T}, true
	default:
		return e, true
	}
}

func sameTables(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string{}, a...)
	bs := append([]string{}, b...)
	sortStrings(as)
	sortStrings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func sortStrings(s []string) {
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
}
