package hs2

import (
	"fmt"
	"strings"

	"repro/internal/analyze"
	"repro/internal/exec"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
)

type planRel = plan.Rel

// Execute runs one SQL statement.
func (s *Session) Execute(text string) (*Result, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return s.executeStmt(st)
}

func (s *Session) executeStmt(st sql.Statement) (*Result, error) {
	s.opts = s.resolveOptions()
	if s.opts.planner.v12 {
		if err := checkV12Support(st); err != nil {
			return nil, err
		}
	}
	switch x := st.(type) {
	case *sql.SelectStmt:
		return s.run(&query{sel: x})
	case *sql.PrepareStmt:
		return s.executePrepare(x)
	case *sql.ExecuteStmt:
		return s.executeExecute(x)
	case *sql.DeallocateStmt:
		return s.executeDeallocate(x)
	case *sql.ExplainStmt:
		sel, ok := x.Inner.(*sql.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("hs2: EXPLAIN supports SELECT statements")
		}
		return s.run(&query{sel: sel, explain: true})
	case *sql.SetStmt:
		// A hive.* key nobody reads would silently do nothing: reject it,
		// as Hive's hive.conf.validation does. Other namespaces are free.
		key := strings.ToLower(x.Key)
		if _, known := knobRegistry[key]; !known && strings.HasPrefix(key, "hive.") {
			return nil, fmt.Errorf("hs2: SET %s: unknown configuration key", key)
		}
		s.SetConf(key, x.Value)
		return &Result{}, nil
	case *sql.UseStmt:
		if _, err := s.srv.MS.Tables(x.DB); err != nil {
			return nil, err
		}
		s.db = x.DB
		return &Result{}, nil
	case *sql.ShowStmt:
		return s.executeShow(x)
	case *sql.CreateDatabaseStmt:
		err := s.srv.MS.CreateDatabase(x.Name)
		if err != nil && x.IfNotExists {
			err = nil
		}
		return &Result{}, err
	case *sql.CreateTableStmt:
		return s.executeCreateTable(x)
	case *sql.CreateMaterializedViewStmt:
		return s.executeCreateMV(x)
	case *sql.AlterMVRebuildStmt:
		return s.executeRebuildMV(x)
	case *sql.DropStmt:
		return s.executeDrop(x)
	case *sql.AlterTableDropPartitionStmt:
		return s.executeDropPartition(x)
	case *sql.AnalyzeStmt:
		return s.executeAnalyze(x)
	case *sql.InsertStmt:
		return s.executeInsert(x)
	case *sql.MultiInsertStmt:
		return s.executeMultiInsert(x)
	case *sql.UpdateStmt:
		return s.executeUpdate(x)
	case *sql.DeleteStmt:
		return s.executeDelete(x)
	case *sql.MergeStmt:
		return s.executeMerge(x)
	case *sql.CreateResourcePlanStmt, *sql.CreatePoolStmt, *sql.CreateRuleStmt,
		*sql.AddRuleStmt, *sql.CreateMappingStmt, *sql.AlterPlanStmt:
		return s.executeWM(st)
	}
	return nil, fmt.Errorf("hs2: unsupported statement %T", st)
}

// checkV12Support rejects SQL features Hive 1.2 lacked (paper §7.1: set
// operations, correlated scalar subqueries with non-equi conditions,
// INTERVAL notation, ORDER BY unselected columns, among others).
func checkV12Support(st sql.Statement) error {
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		if ex, isEx := st.(*sql.ExplainStmt); isEx {
			return checkV12Support(ex.Inner)
		}
		return nil
	}
	var err error
	var checkBody func(q sql.QueryExpr)
	var checkExpr func(e sql.Expr)
	var checkSelect func(ss *sql.SelectStmt)
	checkExpr = func(e sql.Expr) {
		if err != nil || e == nil {
			return
		}
		switch x := e.(type) {
		case *sql.IntervalExpr:
			err = fmt.Errorf("hs2: INTERVAL notation is not supported in Hive 1.2")
		case *sql.SubqueryExpr:
			// Correlated scalar subqueries with non-equi conditions.
			if hasNonEquiCorrelation(x.Sub) {
				err = fmt.Errorf("hs2: correlated scalar subquery with non-equi condition is not supported in Hive 1.2")
			}
			checkSelect(x.Sub)
		case *sql.BinExpr:
			checkExpr(x.L)
			checkExpr(x.R)
		case *sql.UnaryExpr:
			checkExpr(x.E)
		case *sql.Call:
			for _, a := range x.Args {
				checkExpr(a)
			}
		case *sql.CaseExpr:
			checkExpr(x.Operand)
			for _, w := range x.Whens {
				checkExpr(w.Cond)
				checkExpr(w.Then)
			}
			checkExpr(x.Else)
		case *sql.CastExpr:
			checkExpr(x.E)
		case *sql.BetweenExpr:
			checkExpr(x.E)
			checkExpr(x.Lo)
			checkExpr(x.Hi)
		case *sql.InExpr:
			checkExpr(x.E)
			if x.Sub != nil {
				checkSelect(x.Sub)
			}
		case *sql.ExistsExpr:
			checkSelect(x.Sub)
		case *sql.IsNullExpr:
			checkExpr(x.E)
		case *sql.LikeExpr:
			checkExpr(x.E)
		}
	}
	checkBody = func(q sql.QueryExpr) {
		if err != nil {
			return
		}
		switch b := q.(type) {
		case *sql.SetOp:
			if b.Kind == sql.SetIntersect || b.Kind == sql.SetExcept {
				err = fmt.Errorf("hs2: %s is not supported in Hive 1.2", b.Kind)
				return
			}
			checkBody(b.Left)
			checkBody(b.Right)
		case *sql.SelectCore:
			for _, it := range b.Items {
				checkExpr(it.Expr)
			}
			checkExpr(b.Where)
			checkExpr(b.Having)
		}
	}
	checkSelect = func(ss *sql.SelectStmt) {
		if err != nil {
			return
		}
		checkBody(ss.Body)
		// ORDER BY on unselected columns: detectable for simple cores.
		if core, ok := ss.Body.(*sql.SelectCore); ok {
			for _, o := range ss.OrderBy {
				id, isIdent := o.Expr.(*sql.Ident)
				if !isIdent {
					continue
				}
				found := false
				for _, it := range core.Items {
					if it.Star || it.TableStar != "" {
						found = true
						break
					}
					if it.Alias == id.Name {
						found = true
						break
					}
					if sel, ok := it.Expr.(*sql.Ident); ok && sel.Name == id.Name {
						found = true
						break
					}
				}
				if !found {
					err = fmt.Errorf("hs2: ORDER BY on unselected column %q is not supported in Hive 1.2", id.Name)
					return
				}
			}
		}
		for _, cte := range ss.With {
			checkSelect(cte.Select)
		}
	}
	checkSelect(sel)
	return err
}

func hasNonEquiCorrelation(ss *sql.SelectStmt) bool {
	core, ok := ss.Body.(*sql.SelectCore)
	if !ok || core.Where == nil {
		return false
	}
	nonEqui := false
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		be, ok := e.(*sql.BinExpr)
		if !ok {
			return
		}
		switch be.Op {
		case "AND":
			walk(be.L)
			walk(be.R)
		case "<", "<=", ">", ">=", "<>":
			nonEqui = true
		}
	}
	walk(core.Where)
	return nonEqui
}

// analyzeSQL parses and analyzes a SELECT (used for views).
func (s *Session) analyzeSQL(text, db string) (plan.Rel, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("hs2: expected SELECT, got %T", st)
	}
	return analyze.New(s.srv.MS, db).AnalyzeSelect(sel)
}

// snapshotAt captures the per-table WriteId watermarks a plan reads, as
// seen from one pinned transaction snapshot. Watermarks and execution must
// derive from the same snapshot — the result cache keys validity on them.
func (s *Session) snapshotAt(rel plan.Rel, cur txn.Snapshot) resultcache.Snapshot {
	snap := resultcache.Snapshot{}
	tm := s.srv.MS.Txns()
	var walk func(r plan.Rel)
	seen := map[plan.Rel]bool{}
	walk = func(r plan.Rel) {
		if seen[r] {
			return
		}
		seen[r] = true
		if sc, ok := r.(*plan.Scan); ok {
			full := sc.Table.FullName()
			snap[full] = tm.GetValidWriteIds(full, cur).HighWater
		}
		if fs, ok := r.(*plan.ForeignScan); ok {
			// External tables have no transactional snapshot; a changing
			// generation marker would go here. Use -1 (never cacheable as
			// fresh across writes we cannot observe).
			snap[fs.Table.FullName()] = -1
		}
		for _, c := range r.Children() {
			walk(c)
		}
	}
	walk(rel)
	return snap
}

// makeScanFactory builds ACID scan operators: splits per partition with
// static partition pruning from pushed predicates, sargs for stripe
// skipping, runtime semijoin reducer bindings, and a residual filter that
// guarantees exactness regardless of pushdown. All scans of the query read
// at the same pinned snapshot — the one the result cache keyed on.
func (s *Session) makeScanFactory(ctx *exec.Context, snap txn.Snapshot) func(sc *plan.Scan) (exec.Operator, error) {
	return func(sc *plan.Scan) (exec.Operator, error) {
		tm := s.srv.MS.Txns()
		valid := tm.GetValidWriteIds(sc.Table.FullName(), snap)
		splits, err := s.splitsFor(sc, valid)
		if err != nil {
			return nil, err
		}
		op := &exec.ScanOp{
			FS:     s.srv.FS,
			Table:  sc.Table,
			Cols:   sc.Cols,
			Meta:   sc.Meta,
			Splits: splits,
			Ctx:    ctx,
			Sarg:   s.sargFor(sc),
		}
		for _, rf := range sc.RF {
			if rf.PartKeyIdx >= 0 {
				op.Prune = append(op.Prune, exec.PartPruneBind{FilterID: rf.ID, PartKey: rf.PartKeyIdx})
			} else {
				op.RF = append(op.RF, exec.RuntimeFilterBind{FilterID: rf.ID, OutCol: rf.Col})
			}
		}
		// Residual filter for exactness.
		if len(sc.Filter) > 0 {
			pred, err := exec.Compile(plan.AndAll(sc.Filter), op.Types())
			if err != nil {
				return nil, err
			}
			return &exec.FilterOp{Input: op, Pred: pred}, nil
		}
		return op, nil
	}
}

// splitsFor lists the table's splits, statically pruning partitions whose
// key values violate pushed predicates (paper §3.1: Hive skips scanning
// full partitions for queries filtering on partition values).
func (s *Session) splitsFor(sc *plan.Scan, valid txn.ValidWriteIds) ([]exec.TableSplit, error) {
	t := sc.Table
	if len(t.PartKeys) == 0 {
		return []exec.TableSplit{{Loc: t.Location, Valid: valid}}, nil
	}
	metaOff := 0
	if sc.Meta {
		metaOff = 3
	}
	// Identify pushed predicates that reference only partition-key output
	// columns, and their output positions.
	partCols := map[int]int{} // scan output ordinal -> part key index
	for outIdx, tcol := range sc.Cols {
		if tcol >= len(t.Cols) {
			partCols[metaOff+outIdx] = tcol - len(t.Cols)
		}
	}
	var partPreds []plan.Rex
	for _, f := range sc.Filter {
		bits := map[int]bool{}
		plan.InputBits(f, bits)
		onlyPart := len(bits) > 0
		for b := range bits {
			if _, ok := partCols[b]; !ok {
				onlyPart = false
				break
			}
		}
		if onlyPart {
			partPreds = append(partPreds, f)
		}
	}
	var splits []exec.TableSplit
	for _, p := range s.srv.MS.PartitionsOf(t) {
		vals := make([]types.Datum, len(t.PartKeys))
		for i, v := range p.Values {
			d, err := types.Cast(types.NewString(v), t.PartKeys[i].Type)
			if err != nil {
				return nil, err
			}
			vals[i] = d
		}
		keep := true
		for _, f := range partPreds {
			ok, err := evalPartPred(f, partCols, vals)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			splits = append(splits, exec.TableSplit{Loc: p.Location, PartValues: vals, Valid: valid})
		}
	}
	return splits, nil
}

// evalPartPred evaluates a partition-only predicate against one partition's
// key values by substituting them as literals.
func evalPartPred(f plan.Rex, partCols map[int]int, vals []types.Datum) (bool, error) {
	subst := plan.RemapCols(f, func(i int) int { return i })
	subst = substituteLiterals(subst, partCols, vals)
	d, ok := exec.EvalConst(subst)
	if !ok {
		return true, nil // cannot decide statically: keep the partition
	}
	return !d.Null && d.I != 0, nil
}

func substituteLiterals(e plan.Rex, partCols map[int]int, vals []types.Datum) plan.Rex {
	switch x := e.(type) {
	case *plan.ColRef:
		if pi, ok := partCols[x.Idx]; ok && pi < len(vals) {
			return &plan.Literal{Val: vals[pi], T: x.T}
		}
		return x
	case *plan.Func:
		args := make([]plan.Rex, len(x.Args))
		for i, a := range x.Args {
			args[i] = substituteLiterals(a, partCols, vals)
		}
		return &plan.Func{Op: x.Op, Args: args, T: x.T}
	default:
		return e
	}
}

// sargFor converts pushed predicates into a search argument over the ACID
// file schema (3 system columns + data columns).
func (s *Session) sargFor(sc *plan.Scan) *orc.SearchArgument {
	metaOff := 0
	if sc.Meta {
		metaOff = 3
	}
	var preds []orc.Predicate
	for _, f := range sc.Filter {
		fn, ok := f.(*plan.Func)
		if !ok || len(fn.Args) != 2 {
			continue
		}
		cr, crOK := fn.Args[0].(*plan.ColRef)
		lit, litOK := fn.Args[1].(*plan.Literal)
		op := fn.Op
		if !crOK || !litOK {
			cr, crOK = fn.Args[1].(*plan.ColRef)
			lit, litOK = fn.Args[0].(*plan.Literal)
			if !crOK || !litOK {
				continue
			}
			op = flipCompare(op)
		}
		// Only data columns are stored in files.
		tcolPos := cr.Idx - metaOff
		if tcolPos < 0 || tcolPos >= len(sc.Cols) {
			continue
		}
		tcol := sc.Cols[tcolPos]
		if tcol >= len(sc.Table.Cols) {
			continue // partition key: handled by split pruning
		}
		fileCol := 3 + tcol // acid meta columns precede data in files
		var p orc.Predicate
		switch op {
		case "=":
			p = orc.Predicate{Col: fileCol, Op: orc.PredEQ, Values: []types.Datum{lit.Val}}
		case "<":
			p = orc.Predicate{Col: fileCol, Op: orc.PredLT, Values: []types.Datum{lit.Val}}
		case "<=":
			p = orc.Predicate{Col: fileCol, Op: orc.PredLE, Values: []types.Datum{lit.Val}}
		case ">":
			p = orc.Predicate{Col: fileCol, Op: orc.PredGT, Values: []types.Datum{lit.Val}}
		case ">=":
			p = orc.Predicate{Col: fileCol, Op: orc.PredGE, Values: []types.Datum{lit.Val}}
		default:
			continue
		}
		preds = append(preds, p)
	}
	if len(preds) == 0 {
		return nil
	}
	return &orc.SearchArgument{Preds: preds}
}

func flipCompare(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func (s *Session) executeShow(x *sql.ShowStmt) (*Result, error) {
	res := &Result{Columns: []string{x.What}}
	switch x.What {
	case "tables":
		names, err := s.srv.MS.Tables(s.db)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			res.Rows = append(res.Rows, []types.Datum{types.NewString(n)})
		}
	case "databases":
		for _, n := range s.srv.MS.Databases() {
			res.Rows = append(res.Rows, []types.Datum{types.NewString(n)})
		}
	default:
		return nil, fmt.Errorf("hs2: SHOW %s not supported", x.What)
	}
	return res, nil
}
