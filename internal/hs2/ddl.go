package hs2

import (
	"fmt"
	"time"

	"repro/internal/hll"
	"repro/internal/metastore"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wm"
)

// Lock shorthand for DDL paths.
type txnLockRequest = txn.LockRequest

const txnLockExclusive = txn.LockExclusive

const lockTimeout = 5 * time.Second

func (s *Session) executeCreateTable(x *sql.CreateTableStmt) (*Result, error) {
	db := x.Table.DB
	if db == "" {
		db = s.db
	}
	if x.IfNotExists {
		if _, err := s.srv.MS.GetTable(db, x.Table.Name); err == nil {
			return &Result{}, nil
		}
	}
	t := &metastore.Table{
		DB:             db,
		Name:           x.Table.Name,
		External:       x.External,
		StorageHandler: x.StoredBy,
		Props:          x.TblProps,
	}
	for _, c := range x.Cols {
		t.Cols = append(t.Cols, metastore.Column{Name: c.Name, Type: c.Type})
		if c.NotNull {
			t.Constraints.NotNull = append(t.Constraints.NotNull, c.Name)
		}
	}
	for _, c := range x.PartKeys {
		t.PartKeys = append(t.PartKeys, metastore.Column{Name: c.Name, Type: c.Type})
	}
	t.Constraints.PrimaryKey = x.PrimaryKey
	for _, fk := range x.ForeignKeys {
		ref := fk.RefTable.Qualified()
		if fk.RefTable.DB == "" {
			ref = db + "." + fk.RefTable.Name
		}
		t.Constraints.ForeignKeys = append(t.Constraints.ForeignKeys, metastore.ForeignKey{
			Cols: fk.Cols, RefTable: ref, RefCols: fk.RefCols,
		})
	}
	t.Constraints.UniqueKeys = x.UniqueKeys

	// CTAS: derive schema from the query.
	var ctasRows [][]types.Datum
	if x.AsSelect != nil {
		q := &query{sel: x.AsSelect, internal: true}
		res, err := s.run(q)
		if err != nil {
			return nil, err
		}
		for _, f := range q.rel.Schema() {
			t.Cols = append(t.Cols, metastore.Column{Name: f.Name, Type: f.T})
		}
		ctasRows = res.Rows
	}
	if err := s.srv.MS.CreateTable(t); err != nil {
		return nil, err
	}
	if ctasRows != nil {
		if err := s.insertRows(t, ctasRows, false); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

func (s *Session) executeCreateMV(x *sql.CreateMaterializedViewStmt) (*Result, error) {
	db := x.Name.DB
	if db == "" {
		db = s.db
	}
	rel, err := s.analyzeSQL(x.QueryText, s.db)
	if err != nil {
		return nil, fmt.Errorf("hs2: materialized view query: %v", err)
	}
	t := &metastore.Table{
		DB:                 db,
		Name:               x.Name.Name,
		StorageHandler:     x.StoredBy,
		Props:              x.TblProps,
		IsMaterializedView: true,
		ViewSQL:            x.QueryText,
		RewriteEnabled:     !x.DisableRewrite,
		SnapshotWriteIds:   map[string]int64{},
	}
	for _, f := range rel.Schema() {
		t.Cols = append(t.Cols, metastore.Column{Name: f.Name, Type: f.T})
	}
	if err := s.srv.MS.CreateTable(t); err != nil {
		return nil, err
	}
	if err := s.fillMV(t, rel); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// fillMV recomputes the view contents and records the snapshot the
// materialization reflects.
func (s *Session) fillMV(t *metastore.Table, rel plan.Rel) error {
	// Capture source snapshot before reading so a concurrent write makes
	// the view stale rather than silently half-included.
	tm := s.srv.MS.Txns()
	snap := tm.GetSnapshot()
	sources := map[string]int64{}
	var walk func(r plan.Rel)
	walk = func(r plan.Rel) {
		if sc, ok := r.(*plan.Scan); ok {
			full := sc.Table.FullName()
			sources[full] = tm.GetValidWriteIds(full, snap).HighWater
		}
		for _, c := range r.Children() {
			walk(c)
		}
	}
	walk(rel)
	// Full optimization (without MV rewriting, which could self-reference)
	// followed by federation pushdown.
	optimized := opt.New(s.srv.MS, s.opts.planner.Options).Optimize(rel)
	optimized = s.srv.Registry.PushComputation(optimized)
	rows, err := s.runPlan(optimized)
	if err != nil {
		return err
	}
	if err := s.overwriteTable(t, rows); err != nil {
		return err
	}
	t.SnapshotWriteIds = sources
	return nil
}

func (s *Session) executeRebuildMV(x *sql.AlterMVRebuildStmt) (*Result, error) {
	db := x.Name.DB
	if db == "" {
		db = s.db
	}
	t, err := s.srv.MS.GetTable(db, x.Name.Name)
	if err != nil {
		return nil, err
	}
	if !t.IsMaterializedView {
		return nil, fmt.Errorf("hs2: %s is not a materialized view", t.FullName())
	}
	rel, err := s.analyzeSQL(t.ViewSQL, s.db)
	if err != nil {
		return nil, err
	}
	// Fresh view: rebuild is a no-op.
	rw := s.mvRewriter()
	if rw.Fresh(t) && t.Props["materialized.view.allow.stale"] != "true" {
		return &Result{}, nil
	}
	if err := s.fillMV(t, rel); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (s *Session) executeDrop(x *sql.DropStmt) (*Result, error) {
	db := x.Name.DB
	if db == "" {
		db = s.db
	}
	if x.Kind == "database" {
		return nil, fmt.Errorf("hs2: DROP DATABASE is not supported")
	}
	t, err := s.srv.MS.GetTable(db, x.Name.Name)
	if err != nil {
		if x.IfExists {
			return &Result{}, nil
		}
		return nil, err
	}
	// DROP takes a table-level exclusive lock (paper §3.2).
	tm := s.srv.MS.Txns()
	id := tm.Begin()
	full := db + "." + x.Name.Name
	if err := tm.Locks().Acquire(id, []txnLockRequest{{Table: full, Mode: txnLockExclusive}}, lockTimeout); err != nil {
		tm.Abort(id)
		return nil, err
	}
	err = s.srv.MS.DropTable(db, x.Name.Name)
	tm.Commit(id)
	if err != nil {
		return nil, err
	}
	// A dropped managed table's files are gone; a path recreated under the
	// same name would otherwise race the FileID check on every footer hit.
	s.srv.MetaCache.InvalidatePrefix(t.Location)
	return &Result{}, nil
}

func (s *Session) executeDropPartition(x *sql.AlterTableDropPartitionStmt) (*Result, error) {
	db := x.Table.DB
	if db == "" {
		db = s.db
	}
	t, err := s.srv.MS.GetTable(db, x.Table.Name)
	if err != nil {
		return nil, err
	}
	values := make([]string, len(t.PartKeys))
	for i, k := range t.PartKeys {
		e, ok := x.Spec[k.Name]
		if !ok {
			return nil, fmt.Errorf("hs2: partition spec missing key %s", k.Name)
		}
		lit, ok := e.(*sql.Lit)
		if !ok {
			return nil, fmt.Errorf("hs2: partition value for %s must be a literal", k.Name)
		}
		values[i] = lit.Val.String()
	}
	spec := metastore.PartitionSpec(t.PartKeys, values)
	tm := s.srv.MS.Txns()
	id := tm.Begin()
	if err := tm.Locks().Acquire(id, []txnLockRequest{{Table: t.FullName(), Partition: spec, Mode: txnLockExclusive}}, lockTimeout); err != nil {
		tm.Abort(id)
		return nil, err
	}
	err = s.srv.MS.DropPartition(db, x.Table.Name, values)
	tm.Commit(id)
	if err == nil {
		s.srv.MetaCache.InvalidatePrefix(t.Location + "/" + spec)
	}
	return &Result{}, err
}

// executeAnalyze recomputes full table statistics (cardinality, min/max,
// NDV sketches) and stores them in HMS (paper §4.1).
func (s *Session) executeAnalyze(x *sql.AnalyzeStmt) (*Result, error) {
	db := x.Table.DB
	if db == "" {
		db = s.db
	}
	t, err := s.srv.MS.GetTable(db, x.Table.Name)
	if err != nil {
		return nil, err
	}
	rel := plan.NewScan(t, t.Name)
	rows, err := s.runPlan(rel)
	if err != nil {
		return nil, err
	}
	all := plan.TableCols(t)
	stats := computeStats(rows, all)
	s.srv.MS.SetStats(t.FullName(), stats)
	return &Result{}, nil
}

// computeStats derives additive table statistics from rows.
func computeStats(rows [][]types.Datum, cols []metastore.Column) *metastore.TableStats {
	stats := &metastore.TableStats{RowCount: int64(len(rows)), Cols: map[string]*metastore.ColStats{}}
	for i, c := range cols {
		cs := &metastore.ColStats{NDV: hll.New()}
		for _, row := range rows {
			if i >= len(row) {
				continue
			}
			d := row[i]
			if d.Null {
				cs.NullCount++
				continue
			}
			cs.NDV.Add(d.Hash())
			if cs.Min == nil || d.Compare(*cs.Min) < 0 {
				dc := d
				cs.Min = &dc
			}
			if cs.Max == nil || d.Compare(*cs.Max) > 0 {
				dc := d
				cs.Max = &dc
			}
		}
		stats.Cols[c.Name] = cs
	}
	return stats
}

// executeWM handles workload-management DDL (paper §5.2).
func (s *Session) executeWM(st sql.Statement) (*Result, error) {
	ms := s.srv.MS
	switch x := st.(type) {
	case *sql.CreateResourcePlanStmt:
		_, err := ms.CreateResourcePlan(x.Name)
		return &Result{}, err
	case *sql.CreatePoolStmt:
		return &Result{}, ms.AddPool(x.Plan, metastore.Pool{
			Name: x.Pool, AllocFraction: x.AllocFraction, QueryParallelism: x.QueryParallelism,
			MemFraction: x.MemFraction,
		})
	case *sql.CreateRuleStmt:
		action := metastore.ActionMoveToPool
		if x.Kill {
			action = metastore.ActionKill
		}
		return &Result{}, ms.AddTrigger(x.Plan, metastore.Trigger{
			Name: x.Name, Metric: x.Metric, Threshold: x.Threshold,
			Action: action, TargetPool: x.MovePool,
		})
	case *sql.AddRuleStmt:
		return &Result{}, ms.AttachRuleToPool(x.Rule, x.Pool)
	case *sql.CreateMappingStmt:
		return &Result{}, ms.AddMapping(x.Plan, metastore.Mapping{Kind: x.Kind, Name: x.Name, Pool: x.Pool})
	case *sql.AlterPlanStmt:
		if x.DefaultPool != "" {
			return &Result{}, ms.SetDefaultPool(x.Plan, x.DefaultPool)
		}
		if x.EnableActivate {
			p, err := ms.ActivateResourcePlan(x.Plan)
			if err != nil {
				return nil, err
			}
			mgr, err := wm.NewManagerWithMemory(p, s.srv.Daemons.Executors(), s.srv.memoryBytes)
			if err != nil {
				return nil, err
			}
			s.srv.mu.Lock()
			s.srv.wmgr = mgr
			s.srv.mu.Unlock()
			return &Result{}, nil
		}
	}
	return nil, fmt.Errorf("hs2: unsupported workload management statement %T", st)
}
