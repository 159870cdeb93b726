package hs2

import (
	"fmt"

	"repro/internal/acid"
	"repro/internal/analyze"
	"repro/internal/exec"
	"repro/internal/metastore"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// executeInsert implements INSERT INTO/OVERWRITE with VALUES or SELECT,
// static partition specs, dynamic partitioning (trailing columns), and
// external storage handler targets.
func (s *Session) executeInsert(x *sql.InsertStmt) (*Result, error) {
	db := x.Table.DB
	if db == "" {
		db = s.db
	}
	t, err := s.srv.MS.GetTable(db, x.Table.Name)
	if err != nil {
		return nil, err
	}

	// Static partition values.
	static := map[string]types.Datum{}
	for k, e := range x.Partition {
		if e == nil {
			continue // dynamic partition key
		}
		lit, ok := e.(*sql.Lit)
		if !ok {
			return nil, fmt.Errorf("hs2: partition value for %s must be a literal", k)
		}
		pk := -1
		for i, c := range t.PartKeys {
			if c.Name == k {
				pk = i
			}
		}
		if pk < 0 {
			return nil, fmt.Errorf("hs2: %s is not a partition column of %s", k, t.FullName())
		}
		d, err := types.Cast(lit.Val, t.PartKeys[pk].Type)
		if err != nil {
			return nil, err
		}
		static[k] = d
	}

	rows, err := s.sourceRows(x, t, static)
	if err != nil {
		return nil, err
	}
	if x.Overwrite {
		if err := s.truncateTable(t); err != nil {
			return nil, err
		}
	}
	if t.StorageHandler != "" {
		return &Result{}, s.insertExternal(t, rows)
	}
	return &Result{}, s.insertRows(t, rows, false)
}

// sourceRows evaluates the insert source into full-width rows (data
// columns then partition key values).
func (s *Session) sourceRows(x *sql.InsertStmt, t *metastore.Table, static map[string]types.Datum) ([][]types.Datum, error) {
	all := plan.TableCols(t)
	// Target column list: explicit, else all data cols (+ dynamic parts).
	targets := x.Columns
	if targets == nil {
		for _, c := range t.Cols {
			targets = append(targets, c.Name)
		}
		for _, c := range t.PartKeys {
			if _, ok := static[c.Name]; !ok {
				targets = append(targets, c.Name)
			}
		}
	}
	var src [][]types.Datum
	switch {
	case x.Values != nil:
		b, err := evalValueRows(x.Values)
		if err != nil {
			return nil, err
		}
		src = b
	case x.Select != nil:
		res, err := s.run(&query{sel: x.Select, internal: true})
		if err != nil {
			return nil, err
		}
		src = res.Rows
	default:
		return nil, fmt.Errorf("hs2: INSERT requires VALUES or SELECT")
	}
	// Map source rows onto the table's full schema.
	out := make([][]types.Datum, len(src))
	for ri, row := range src {
		if len(row) != len(targets) {
			return nil, fmt.Errorf("hs2: INSERT has %d columns but %d values", len(targets), len(row))
		}
		full := make([]types.Datum, len(all))
		for i := range full {
			full[i] = types.NullOf(all[i].Type.Kind)
		}
		for ci, name := range targets {
			pos := -1
			for i, c := range all {
				if c.Name == name {
					pos = i
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("hs2: unknown column %s in INSERT", name)
			}
			d, err := types.Cast(row[ci], all[pos].Type)
			if err != nil {
				return nil, fmt.Errorf("hs2: column %s: %v", name, err)
			}
			full[pos] = d
		}
		for k, v := range static {
			for i, c := range all {
				if c.Name == k {
					full[i] = v
				}
			}
		}
		out[ri] = full
	}
	return out, nil
}

// evalValueRows evaluates INSERT VALUES entries, which may be any constant
// expression (literals, CASTs, arithmetic).
func evalValueRows(values [][]sql.Expr) ([][]types.Datum, error) {
	out := make([][]types.Datum, len(values))
	for i, row := range values {
		r := make([]types.Datum, len(row))
		for j, e := range row {
			if lit, ok := e.(*sql.Lit); ok {
				r[j] = lit.Val
				continue
			}
			rex, err := analyze.ResolveConstExpr(e)
			if err != nil {
				return nil, fmt.Errorf("hs2: INSERT VALUES entry %d: %v", j+1, err)
			}
			d, ok := exec.EvalConst(rex)
			if !ok {
				return nil, fmt.Errorf("hs2: INSERT VALUES entry %d is not constant", j+1)
			}
			r[j] = d
		}
		out[i] = r
	}
	return out, nil
}

// insertRows writes full-width rows into a native ACID table within one
// transaction, routing rows to partitions and updating statistics
// additively (paper §4.1).
func (s *Session) insertRows(t *metastore.Table, rows [][]types.Datum, overwrite bool) error {
	tm := s.srv.MS.Txns()
	id := tm.Begin()
	wid, err := tm.AllocateWriteId(id, t.FullName())
	if err != nil {
		tm.Abort(id)
		return err
	}
	if err := s.writeRowsAs(t, rows, wid); err != nil {
		tm.Abort(id)
		return err
	}
	tm.AddWriteSet(id, t.FullName(), "", txnOpInsert)
	if err := tm.Commit(id); err != nil {
		return err
	}
	all := plan.TableCols(t)
	s.srv.MS.MergeStats(t.FullName(), computeStats(rows, all))
	return nil
}

// writeRowsAs groups rows by partition and writes one insert delta per
// partition under the given WriteId.
func (s *Session) writeRowsAs(t *metastore.Table, rows [][]types.Datum, wid int64) error {
	dataCols := make([]orc.Column, len(t.Cols))
	for i, c := range t.Cols {
		dataCols[i] = orc.Column{Name: c.Name, Type: c.Type}
	}
	if len(t.PartKeys) == 0 {
		iw := acid.NewInsertWriter(s.srv.FS, t.Location, wid, 0, dataCols, orc.WriterOptions{})
		for _, row := range rows {
			if err := iw.WriteRow(row[:len(t.Cols)]); err != nil {
				return err
			}
		}
		return iw.Close()
	}
	writers := map[string]*acid.InsertWriter{}
	for _, row := range rows {
		values := make([]string, len(t.PartKeys))
		for i := range t.PartKeys {
			d := row[len(t.Cols)+i]
			if d.Null {
				return fmt.Errorf("hs2: NULL partition key for %s", t.PartKeys[i].Name)
			}
			values[i] = d.String()
		}
		spec := metastore.PartitionSpec(t.PartKeys, values)
		w, ok := writers[spec]
		if !ok {
			p, err := s.srv.MS.AddPartition(t.DB, t.Name, values)
			if err != nil {
				return err
			}
			w = acid.NewInsertWriter(s.srv.FS, p.Location, wid, 0, dataCols, orc.WriterOptions{})
			writers[spec] = w
		}
		if err := w.WriteRow(row[:len(t.Cols)]); err != nil {
			return err
		}
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// truncateTable removes all stores (INSERT OVERWRITE / MV refill).
func (s *Session) truncateTable(t *metastore.Table) error {
	if t.StorageHandler != "" {
		return nil // external systems overwrite via their own semantics
	}
	locs := []string{t.Location}
	if len(t.PartKeys) > 0 {
		locs = nil
		for _, p := range s.srv.MS.PartitionsOf(t) {
			locs = append(locs, p.Location)
		}
	}
	for _, loc := range locs {
		bases, deltas, dels, err := acid.ListStores(s.srv.FS, loc)
		if err != nil {
			return err
		}
		for _, d := range append(append(bases, deltas...), dels...) {
			if err := s.srv.FS.Remove(d, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// overwriteTable replaces a table's contents (used by MV maintenance).
func (s *Session) overwriteTable(t *metastore.Table, rows [][]types.Datum) error {
	if t.StorageHandler != "" {
		return s.insertExternal(t, rows)
	}
	if err := s.truncateTable(t); err != nil {
		return err
	}
	return s.insertRows(t, rows, true)
}

// insertExternal routes rows through the table's storage handler.
func (s *Session) insertExternal(t *metastore.Table, rows [][]types.Datum) error {
	h, ok := s.srv.Registry.Handler(t.StorageHandler)
	if !ok {
		return fmt.Errorf("hs2: no storage handler %q registered", t.StorageHandler)
	}
	w, err := h.Writer(t)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := w.WriteRow(row); err != nil {
			return err
		}
	}
	return w.Close()
}

// executeMultiInsert runs Hive's multi-insert: all inserts share the FROM
// source and execute within a single transaction (paper §3.2).
func (s *Session) executeMultiInsert(x *sql.MultiInsertStmt) (*Result, error) {
	tm := s.srv.MS.Txns()
	id := tm.Begin()
	type pending struct {
		t    *metastore.Table
		rows [][]types.Datum
		wid  int64
	}
	var writes []pending
	for _, ins := range x.Inserts {
		// Inject the shared FROM into the insert's select body.
		core, ok := ins.Select.Body.(*sql.SelectCore)
		if !ok {
			tm.Abort(id)
			return nil, fmt.Errorf("hs2: multi-insert branch must be a simple SELECT")
		}
		core.From = x.From
		db := ins.Table.DB
		if db == "" {
			db = s.db
		}
		t, err := s.srv.MS.GetTable(db, ins.Table.Name)
		if err != nil {
			tm.Abort(id)
			return nil, err
		}
		rows, err := s.sourceRows(ins, t, map[string]types.Datum{})
		if err != nil {
			tm.Abort(id)
			return nil, err
		}
		wid, err := tm.AllocateWriteId(id, t.FullName())
		if err != nil {
			tm.Abort(id)
			return nil, err
		}
		writes = append(writes, pending{t: t, rows: rows, wid: wid})
	}
	for _, w := range writes {
		if err := s.writeRowsAs(w.t, w.rows, w.wid); err != nil {
			tm.Abort(id)
			return nil, err
		}
		tm.AddWriteSet(id, w.t.FullName(), "", txnOpInsert)
	}
	if err := tm.Commit(id); err != nil {
		return nil, err
	}
	for _, w := range writes {
		s.srv.MS.MergeStats(w.t.FullName(), computeStats(w.rows, plan.TableCols(w.t)))
	}
	return &Result{}, nil
}

// rowTargets scans the target table with system columns for UPDATE/DELETE:
// returns matching rows as (partition values, row key, full data row).
type rowTarget struct {
	partValues []string
	key        acid.RowKey
	data       []types.Datum
}

func (s *Session) collectTargets(t *metastore.Table, where sql.Expr) ([]rowTarget, error) {
	// Build SELECT __writeid,__fileid,__rowid, <all cols> FROM t WHERE ...
	scan := plan.NewScan(t, t.Name)
	scan.Meta = true
	var rel plan.Rel = scan
	if where != nil {
		cond, err := s.resolveOverScan(scan, where)
		if err != nil {
			return nil, err
		}
		rel = &plan.Filter{Input: scan, Cond: cond}
	}
	rows, err := s.runPlan(rel)
	if err != nil {
		return nil, err
	}
	nData := len(t.Cols)
	var out []rowTarget
	for _, row := range rows {
		rt := rowTarget{
			key: acid.RowKey{
				WriteID: row[0].I, FileID: row[1].I, RowID: row[2].I,
			},
			data: row[3 : 3+nData],
		}
		for i := range t.PartKeys {
			rt.partValues = append(rt.partValues, row[3+nData+i].String())
		}
		out = append(out, rt)
	}
	return out, nil
}

// resolveOverScan resolves an AST predicate against a scan's schema.
func (s *Session) resolveOverScan(scan *plan.Scan, e sql.Expr) (plan.Rex, error) {
	return analyze.ResolveExpr(s.srv.MS, s.db, scan, e)
}

func (s *Session) executeDelete(x *sql.DeleteStmt) (*Result, error) {
	db := x.Table.DB
	if db == "" {
		db = s.db
	}
	t, err := s.srv.MS.GetTable(db, x.Table.Name)
	if err != nil {
		return nil, err
	}
	targets, err := s.collectTargets(t, x.Where)
	if err != nil {
		return nil, err
	}
	return &Result{}, s.applyRowChanges(t, targets, nil, txnOpDelete)
}

func (s *Session) executeUpdate(x *sql.UpdateStmt) (*Result, error) {
	db := x.Table.DB
	if db == "" {
		db = s.db
	}
	t, err := s.srv.MS.GetTable(db, x.Table.Name)
	if err != nil {
		return nil, err
	}
	targets, err := s.collectTargets(t, x.Where)
	if err != nil {
		return nil, err
	}
	// Compute replacement rows: start from current values, apply SET.
	scan := plan.NewScan(t, t.Name)
	setIdx := make([]int, len(x.Set))
	setRex := make([]plan.Rex, len(x.Set))
	for i, asg := range x.Set {
		pos := t.Col(asg.Column)
		if pos < 0 {
			return nil, fmt.Errorf("hs2: unknown column %s in UPDATE", asg.Column)
		}
		if t.IsPartKey(asg.Column) {
			return nil, fmt.Errorf("hs2: cannot update partition column %s", asg.Column)
		}
		r, err := analyze.ResolveExpr(s.srv.MS, s.db, scan, asg.Value)
		if err != nil {
			return nil, err
		}
		setIdx[i] = pos
		setRex[i] = r
	}
	newRows := make([][]types.Datum, len(targets))
	for ri, tg := range targets {
		row := append([]types.Datum{}, tg.data...)
		for i := range t.PartKeys {
			pv, err := types.Cast(types.NewString(tg.partValues[i]), t.PartKeys[i].Type)
			if err != nil {
				return nil, err
			}
			row = append(row, pv)
		}
		for i, r := range setRex {
			v, err := evalRexOnRow(r, row)
			if err != nil {
				return nil, err
			}
			cast, err := types.Cast(v, t.Cols[setIdx[i]].Type)
			if err != nil {
				return nil, err
			}
			row[setIdx[i]] = cast
		}
		newRows[ri] = row
	}
	return &Result{}, s.applyRowChanges(t, targets, newRows, txnOpUpdate)
}

// applyRowChanges writes delete deltas for the targets (and insert deltas
// for replacements) in one transaction with first-commit-wins conflict
// tracking (paper §3.2).
func (s *Session) applyRowChanges(t *metastore.Table, targets []rowTarget, newRows [][]types.Datum, op txnOpKind) error {
	if len(targets) == 0 {
		return nil
	}
	tm := s.srv.MS.Txns()
	id := tm.Begin()
	wid, err := tm.AllocateWriteId(id, t.FullName())
	if err != nil {
		tm.Abort(id)
		return err
	}
	// Group deletes by partition.
	byPart := map[string][]acid.RowKey{}
	partVals := map[string][]string{}
	for _, tg := range targets {
		spec := metastore.PartitionSpec(t.PartKeys, tg.partValues)
		byPart[spec] = append(byPart[spec], tg.key)
		partVals[spec] = tg.partValues
	}
	for spec, keys := range byPart {
		loc := t.Location
		if len(t.PartKeys) > 0 {
			p, err := s.srv.MS.AddPartition(t.DB, t.Name, partVals[spec])
			if err != nil {
				tm.Abort(id)
				return err
			}
			loc = p.Location
		}
		dw := acid.NewDeleteWriter(s.srv.FS, loc, wid, 0)
		for _, k := range keys {
			if err := dw.Delete(k); err != nil {
				tm.Abort(id)
				return err
			}
		}
		if err := dw.Close(); err != nil {
			tm.Abort(id)
			return err
		}
		tm.AddWriteSet(id, t.FullName(), spec, op)
	}
	if newRows != nil {
		if err := s.writeRowsAs(t, newRows, wid); err != nil {
			tm.Abort(id)
			return err
		}
	}
	return tm.Commit(id)
}

func (s *Session) executeMerge(x *sql.MergeStmt) (*Result, error) {
	db := x.Target.DB
	if db == "" {
		db = s.db
	}
	t, err := s.srv.MS.GetTable(db, x.Target.Name)
	if err != nil {
		return nil, err
	}
	// Plan: source LEFT JOIN target (with system columns) ON cond.
	// Build through the analyzer for full name resolution.
	sel := &sql.SelectStmt{
		Body: &sql.SelectCore{
			Items: []sql.SelectItem{{Star: true}},
			From: &sql.Join{
				Kind:  sql.JoinLeft,
				Left:  x.Source,
				Right: &sql.TableName{DB: t.DB, Name: t.Name, Alias: x.Target.Alias},
				On:    x.On,
			},
		},
		Limit: -1,
	}
	rel, err := analyze.New(s.srv.MS, s.db).AnalyzeSelectWithMeta(sel, t.FullName())
	if err != nil {
		return nil, err
	}
	rows, err := s.runPlan(rel)
	if err != nil {
		return nil, err
	}
	// Layout: source cols ++ [__writeid,__fileid,__rowid] ++ target data
	// cols ++ target part keys.
	fields := rel.Schema()
	metaStart := -1
	for i, f := range fields {
		if f.Name == "__writeid" {
			metaStart = i
			break
		}
	}
	if metaStart < 0 {
		return nil, fmt.Errorf("hs2: MERGE could not locate target row identifiers")
	}
	srcW := metaStart
	nData := len(t.Cols)

	var deletes []rowTarget
	var inserts [][]types.Datum
	var updates []rowTarget
	var updateRows [][]types.Datum
	for _, row := range rows {
		matched := !row[metaStart].Null
		handled := false
		for _, cl := range x.When {
			if handled || cl.Matched != matched {
				continue
			}
			// Evaluate optional AND condition over the joined row.
			if cl.And != nil {
				ok, err := s.evalMergeCond(cl.And, x, t, row, srcW)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			handled = true
			switch {
			case cl.Delete:
				deletes = append(deletes, s.mergeTarget(t, row, metaStart, nData))
			case cl.Matched:
				tgt := s.mergeTarget(t, row, metaStart, nData)
				newRow := append([]types.Datum{}, tgt.data...)
				for i := range t.PartKeys {
					pv, _ := types.Cast(types.NewString(tgt.partValues[i]), t.PartKeys[i].Type)
					newRow = append(newRow, pv)
				}
				for _, asg := range cl.Set {
					pos := t.Col(asg.Column)
					if pos < 0 {
						return nil, fmt.Errorf("hs2: unknown column %s in MERGE UPDATE", asg.Column)
					}
					v, err := s.evalMergeExpr(asg.Value, x, t, row, srcW)
					if err != nil {
						return nil, err
					}
					cast, err := types.Cast(v, t.Cols[pos].Type)
					if err != nil {
						return nil, err
					}
					newRow[pos] = cast
				}
				updates = append(updates, tgt)
				updateRows = append(updateRows, newRow)
			default:
				full := make([]types.Datum, len(plan.TableCols(t)))
				if len(cl.Values) != len(full) {
					return nil, fmt.Errorf("hs2: MERGE INSERT expects %d values", len(full))
				}
				for i, e := range cl.Values {
					v, err := s.evalMergeExpr(e, x, t, row, srcW)
					if err != nil {
						return nil, err
					}
					cast, err := types.Cast(v, plan.TableCols(t)[i].Type)
					if err != nil {
						return nil, err
					}
					full[i] = cast
				}
				inserts = append(inserts, full)
			}
		}
	}
	if len(deletes) > 0 || len(updates) > 0 {
		all := append(append([]rowTarget{}, deletes...), updates...)
		if err := s.applyRowChanges(t, all, updateRows, txnOpUpdate); err != nil {
			return nil, err
		}
	}
	if len(inserts) > 0 {
		if err := s.insertRows(t, inserts, false); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

func (s *Session) mergeTarget(t *metastore.Table, row []types.Datum, metaStart, nData int) rowTarget {
	tg := rowTarget{
		key: acid.RowKey{
			WriteID: row[metaStart].I,
			FileID:  row[metaStart+1].I,
			RowID:   row[metaStart+2].I,
		},
		data: row[metaStart+3 : metaStart+3+nData],
	}
	for i := range t.PartKeys {
		tg.partValues = append(tg.partValues, row[metaStart+3+nData+i].String())
	}
	return tg
}

// evalMergeExpr resolves a merge clause expression against the joined
// (source ++ target) row.
func (s *Session) evalMergeExpr(e sql.Expr, x *sql.MergeStmt, t *metastore.Table, row []types.Datum, srcW int) (types.Datum, error) {
	r, err := analyze.ResolveExprOverJoin(s.srv.MS, s.db, x.Source, t, x.Target.Alias, e)
	if err != nil {
		return types.Datum{}, err
	}
	return evalRexOnRow(r, row)
}

func (s *Session) evalMergeCond(e sql.Expr, x *sql.MergeStmt, t *metastore.Table, row []types.Datum, srcW int) (bool, error) {
	d, err := s.evalMergeExpr(e, x, t, row, srcW)
	if err != nil {
		return false, err
	}
	return !d.Null && d.I != 0, nil
}

// txn op aliases.
type txnOpKind = txn.OpKind

const (
	txnOpInsert = txn.OpInsert
	txnOpUpdate = txn.OpUpdate
	txnOpDelete = txn.OpDelete
)

// evalRexOnRow evaluates a resolved expression against one materialized row.
func evalRexOnRow(r plan.Rex, row []types.Datum) (types.Datum, error) {
	ts := make([]types.T, len(row))
	for i, d := range row {
		ts[i] = types.T{Kind: d.K}
		if d.K == types.Decimal {
			ts[i] = types.TDecimal(18, d.DecimalScale())
		}
	}
	e, err := exec.Compile(r, ts)
	if err != nil {
		return types.Datum{}, err
	}
	b := vector.NewBatch(ts, 1)
	for c, d := range row {
		b.Cols[c].Set(0, d)
	}
	b.N = 1
	v, err := e.Eval(b)
	if err != nil {
		return types.Datum{}, err
	}
	return v.Get(0), nil
}
