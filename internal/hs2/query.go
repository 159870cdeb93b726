package hs2

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/analyze"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/llap"
	"repro/internal/opt"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/resultcache"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wm"
)

type planRel = plan.Rel

// Execute runs one SQL statement.
func (s *Session) Execute(text string) (*Result, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return s.executeStmt(st, text)
}

func (s *Session) executeStmt(st sql.Statement, text string) (*Result, error) {
	if s.v12() {
		if err := checkV12Support(st); err != nil {
			return nil, err
		}
	}
	switch x := st.(type) {
	case *sql.SelectStmt:
		return s.executeQuery(x, text)
	case *sql.PrepareStmt:
		return s.executePrepare(x)
	case *sql.ExecuteStmt:
		return s.executeExecute(x)
	case *sql.DeallocateStmt:
		return s.executeDeallocate(x)
	case *sql.ExplainStmt:
		return s.explain(x.Inner)
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

func (s *Session) optimizerOptions() opt.Options {
	return opt.Options{
		JoinReorder: s.confBool("hive.optimize.join.reorder"),
		Semijoin:    s.confBool("hive.optimize.semijoin"),
		SharedWork:  s.confBool("hive.optimize.sharedwork"),
		PruneCols:   s.confBool("hive.optimize.prunecols"),
	}
}

// compileSelect runs the full planning pipeline for a SELECT.
func (s *Session) compileSelect(sel *sql.SelectStmt) (plan.Rel, error) {
	rel, err := analyze.New(s.srv.MS, s.db).AnalyzeSelect(sel)
	if err != nil {
		return nil, err
	}
	s.LastRewriteUsedMV = false
	if s.confBool("hive.materializedview.rewriting") {
		rewritten, changed := s.mvRewriter().Rewrite(rel, s.db)
		if changed {
			rel = rewritten
			s.LastRewriteUsedMV = true
		}
	}
	rel = opt.New(s.srv.MS, s.optimizerOptions()).Optimize(rel)
	rel = s.srv.Registry.PushComputation(rel)
	return rel, nil
}

func (s *Session) explain(st sql.Statement) (*Result, error) {
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("hs2: EXPLAIN supports SELECT statements")
	}
	rel, err := s.compileSelect(sel)
	if err != nil {
		return nil, err
	}
	text := plan.Explain(rel)
	// Surface the I/O path the scan will take: with the elevator on, scans
	// are served from (and hint ahead into) the decoded-vector cache; the
	// runtime counters land in Session.Last{DecodedCacheHits,...} after
	// execution.
	if s.confBool("hive.llap.enabled") && s.confBool("hive.llap.elevator") && s.srv.Decoded != nil {
		text += fmt.Sprintf("io: llap elevator (threads=%d, decoded-cache=%d bytes)\n",
			s.srv.IOThreads(), s.srv.Decoded.Capacity())
	}
	s.LastPlan = text
	res := &Result{Columns: []string{"plan"}}
	res.Rows = append(res.Rows, []types.Datum{types.NewString(text)})
	return res, nil
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

func watermarksEqual(a, b resultcache.Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (s *Session) executeQuery(sel *sql.SelectStmt, text string) (*Result, error) {
	if s.planCacheUsable() {
		if res, handled, err := s.executeParameterized(sel); handled {
			return res, err
		}
	}
	start := time.Now()
	rel, err := s.compileSelect(sel)
	if err != nil {
		return nil, err
	}
	s.LastPlanCacheHit = false
	s.LastCompileNanos = time.Since(start).Nanoseconds()
	s.LastPlan = plan.Explain(rel)
	cols := make([]string, len(rel.Schema()))
	for i, f := range rel.Schema() {
		cols[i] = f.Name
	}
	key := s.db + "|" + rel.Digest()
	return s.execCompiled(rel, cols, key, key, sql.IsDeterministic(sel))
}

// planCacheUsable gates the parameterized serving path. Materialized-view
// rewriting is literal- and freshness-sensitive: a rewritten plan is only
// valid for the literals and MV state it was rewritten under, so sessions
// where a rewrite is possible fall back to the full per-query pipeline.
func (s *Session) planCacheUsable() bool {
	if !s.confBool("hive.query.plan.cache.enabled") {
		return false
	}
	if s.confBool("hive.materializedview.rewriting") && len(s.srv.MS.MaterializedViews()) > 0 {
		return false
	}
	return true
}

// planConfFingerprint folds the configuration that shapes logical planning
// into the plan-cache key, so a SET that changes optimizer behavior gets a
// fresh compile instead of a stale template.
func (s *Session) planConfFingerprint() string {
	keys := []string{
		"hive.profile",
		"hive.optimize.join.reorder",
		"hive.optimize.semijoin",
		"hive.optimize.sharedwork",
		"hive.optimize.prunecols",
		"hive.materializedview.rewriting",
	}
	var b []byte
	for _, k := range keys {
		b = append(b, s.Conf(k)...)
		b = append(b, ';')
	}
	return string(b)
}

// executeParameterized is the hot serving path (paper §4.3): hoist
// literals, look up the optimized plan template by normalized digest, bind
// the hoisted values, and run. handled=false falls back to the per-query
// pipeline (e.g. the parameterized form fails to analyze).
func (s *Session) executeParameterized(sel *sql.SelectStmt) (res *Result, handled bool, err error) {
	start := time.Now()
	norm, args, digest := sql.Parameterize(sel)
	key := plancache.Key{
		DB:     s.db,
		Digest: digest,
		Schema: s.srv.MS.SchemaVersion(),
		Conf:   s.planConfFingerprint(),
	}
	entry := s.srv.Plans.Get(key)
	s.LastPlanCacheHit = entry != nil
	if entry == nil {
		rel, aerr := analyze.New(s.srv.MS, s.db).AnalyzeSelect(norm)
		if aerr != nil {
			// Some statements only analyze with concrete literals (e.g.
			// type-dependent coercions); let the literal pipeline decide.
			return nil, false, nil
		}
		rel = opt.New(s.srv.MS, s.optimizerOptions()).Optimize(rel)
		cols := make([]string, len(rel.Schema()))
		for i, f := range rel.Schema() {
			cols[i] = f.Name
		}
		paramTypes := make([]types.T, len(args))
		for i, a := range args {
			paramTypes[i] = sql.ParamType(a)
		}
		entry = &plancache.Entry{
			Rel:           rel,
			Columns:       cols,
			ParamTypes:    paramTypes,
			Deterministic: sql.IsDeterministic(sel),
		}
		s.srv.Plans.Put(key, entry)
	}
	s.LastRewriteUsedMV = false
	s.LastCompileNanos = time.Since(start).Nanoseconds()
	res, err = s.executeTemplate(s.db, digest, entry, args)
	return res, true, err
}

// executeTemplate binds args into a cached plan template and runs it. The
// result cache is keyed on the normalized digest plus the rendered
// arguments — literal variants share a template but not result rows.
func (s *Session) executeTemplate(db, digest string, entry *plancache.Entry, args []types.Datum) (*Result, error) {
	bound, err := plan.BindParams(entry.Rel, args)
	if err != nil {
		return nil, err
	}
	// Federation pushdown folds bound literals into foreign queries, so it
	// runs per execution, after binding.
	bound = s.srv.Registry.PushComputation(bound)
	s.LastPlan = plan.Explain(bound)
	admKey := db + "|" + digest
	resKey := admKey + "|args=" + renderArgs(args)
	return s.execCompiled(bound, entry.Columns, resKey, admKey, entry.Deterministic)
}

// renderArgs canonicalizes a bound argument vector for result-cache keys.
func renderArgs(args []types.Datum) string {
	var b []byte
	for _, a := range args {
		if a.K == types.String && !a.Null {
			b = append(b, '\'')
			b = append(b, a.S...)
			b = append(b, '\'')
		} else {
			b = append(b, a.String()...)
		}
		b = append(b, ',')
	}
	return string(b)
}

// execCompiled is the shared execution tail: one transaction snapshot,
// pinned before the result-cache lookup, drives the lookup watermarks,
// every table scan, and the Fill — a write landing between lookup and run
// can no longer publish too-new rows under stale watermarks.
func (s *Session) execCompiled(rel plan.Rel, cols []string, resKey, admKey string, deterministic bool) (*Result, error) {
	s.LastCacheHit = false
	pinned := s.srv.MS.Txns().GetSnapshot()
	useCache := s.confBool("hive.query.results.cache.enabled") && deterministic
	var snap resultcache.Snapshot
	if useCache {
		snap = s.snapshotAt(rel, pinned)
		for _, w := range snap {
			if w < 0 {
				useCache = false // external source: not cacheable
				break
			}
		}
	}
	if useCache {
		for {
			ccols, rows, outcome := s.srv.Results.Lookup(resKey, snap)
			if outcome == resultcache.Hit {
				s.LastCacheHit = true
				return &Result{Columns: ccols, Rows: rows}, nil
			}
			if outcome == resultcache.MissFill {
				break
			}
			// MissWaited: the filling query finished; retry lookup.
		}
		if s.testHookAfterLookup != nil {
			s.testHookAfterLookup()
		}
	}

	rows, err := s.runPlanAt(rel, admKey, &pinned)
	if err != nil {
		if useCache {
			s.srv.Results.Abandon(resKey, snap)
		}
		return nil, err
	}
	if useCache {
		// Re-validate before publishing: the rows were computed at the
		// pinned snapshot, so its watermarks must still be the ones the
		// lookup reserved. A mismatch would mean the watermark derivation
		// itself drifted — never publish under watermarks that don't
		// describe the rows.
		if watermarksEqual(s.snapshotAt(rel, pinned), snap) {
			s.srv.Results.Fill(resKey, cols, rows, snap)
		} else {
			s.srv.Results.Abandon(resKey, snap)
		}
	}
	return &Result{Columns: cols, Rows: rows}, nil
}

// runPlan executes a plan with a transaction snapshot pinned at entry,
// keyed for admission on the plan's literal-bearing digest. DML and DDL
// internals use it; the SELECT path goes through execCompiled/runPlanAt
// with the normalized digest.
func (s *Session) runPlan(rel plan.Rel) ([][]types.Datum, error) {
	return s.runPlanAt(rel, s.db+"|"+rel.Digest(), nil)
}

// runPlanAt compiles the physical plan, chooses a runtime mode, executes
// with workload-management admission, and reoptimizes on runtime errors.
// The whole run — including the admission queue wait — is bounded by the
// session's hive.query.timeout and canceled by Session.Close.
//
// Every table scan reads at snap; nil pins a fresh snapshot at entry.
// Pinning one snapshot for the whole query keeps multi-scan plans
// consistent when writes commit mid-run. admKey keys the workload
// manager's peak-memory history: repeats of a plan shape are admitted
// against their observed footprint, and on the parameterized path all
// literal variants of a shape share one history entry.
func (s *Session) runPlanAt(rel plan.Rel, admKey string, snap *txn.Snapshot) ([][]types.Datum, error) {
	qctx := s.ctx
	if qctx == nil {
		qctx = context.Background()
	}
	if ms := s.confInt("hive.query.timeout"); ms > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	if snap == nil {
		pinned := s.srv.MS.Txns().GetSnapshot()
		snap = &pinned
	}
	s.LastQueryDigest = admKey
	adm, pool, err := s.admission(qctx, admKey)
	if err != nil {
		return nil, err
	}
	if adm != nil {
		defer adm.Release()
	}
	start := time.Now()

	memLimit := s.confInt("hive.exec.memory.limit.rows")
	rows, err := s.runOnce(qctx, rel, memLimit, adm, *snap)
	if err != nil {
		if _, pressure := err.(exec.ErrMemoryPressure); pressure && s.confBool("hive.query.reexecution.enabled") {
			// Paper §4.2: reexecute with overlay configuration (more
			// robust settings) or after reoptimizing with runtime stats.
			s.Reexecutions++
			if s.Conf("hive.query.reexecution.strategy") == "reoptimize" {
				rel = opt.New(s.srv.MS, s.optimizerOptions()).Optimize(rel)
			}
			rows, err = s.runOnce(qctx, rel, 0, adm, *snap)
		}
	}
	// Feed the observed peak back into the admission estimate history —
	// the governor accounts peaks even for failed runs, and a killed
	// memory hog is exactly what the next admission should know about.
	if mgr := s.srv.WorkloadManager(); mgr != nil && pool != "" {
		mgr.Observe(admKey, s.LastPeakMemoryBytes)
	}
	if err != nil {
		return nil, err
	}
	if terr := s.checkTriggers(pool, time.Since(start)); terr != nil {
		return nil, terr
	}
	return rows, nil
}

func (s *Session) runOnce(qctx context.Context, rel plan.Rel, memLimit int64, adm *wm.Admission, snap txn.Snapshot) ([][]types.Datum, error) {
	ctx := exec.NewContext()
	ctx.MemoryLimitRows = memLimit
	mode := dag.ModeLLAP
	switch s.Conf("hive.execution.mode") {
	case "mr":
		mode = dag.ModeMR
	case "container":
		mode = dag.ModeContainer
	}
	var view *llap.QueryVectorView
	if mode == dag.ModeLLAP && s.confBool("hive.llap.enabled") {
		ctx.Chunks = s.srv.Cache
		ctx.Readers = s.srv.MetaCache
		// I/O elevator (paper §5.1): serve and publish decoded vectors and
		// let scans hint upcoming stripes to the async decode pool. Off, the
		// scan path is byte-identical to the synchronous one — the elevator
		// and its cache only change timing, never results.
		if s.confBool("hive.llap.elevator") && s.srv.Decoded != nil {
			view = &llap.QueryVectorView{Cache: s.srv.Decoded}
			ctx.Vectors = view
		}
	}
	// Intra-query parallelism rides on LLAP executor slots (paper §5.1);
	// MR and container modes stay serial like the paper's baselines.
	if mode == dag.ModeLLAP {
		dop := int(s.confInt("hive.parallelism"))
		if dop <= 0 {
			dop = runtime.NumCPU()
		}
		// The admission's DOP is a cap, not a grant: a degraded admission
		// runs the query narrower so a saturated pool degrades instead of
		// oversubscribing executors.
		if adm != nil && adm.DOP > 0 && dop > adm.DOP {
			dop = adm.DOP
		}
		ctx.DOP = dop
		ctx.Slots = s.srv.Daemons
	}
	// Memory governance: the blocking operators account against the
	// session budget and spill to the query scratch directory when denied
	// (hive.query.max.memory; 0 keeps accounting for peak observability
	// without ever denying). The server-wide query sequence keeps
	// concurrent queries' scratch directories disjoint — a shared
	// directory would let the first finisher's sweep delete the other's
	// live spill files.
	scratch := fmt.Sprintf("%s/_scratch/q%d_%d", s.srv.MS.Root(), time.Now().UnixNano(), s.srv.querySeq.Add(1))
	// The admission's QueryBudget makes the reservation sound: the
	// governor denies growth past what the pool granted, so the query
	// spills instead of blowing the pool's aggregate budget. An explicit
	// smaller session budget still wins.
	budget := s.confInt("hive.query.max.memory")
	if adm != nil && adm.QueryBudget > 0 && (budget <= 0 || adm.QueryBudget < budget) {
		budget = adm.QueryBudget
	}
	ctx.GoCtx = qctx
	ctx.Mem = exec.NewGovernor(budget)
	ctx.FS = s.srv.FS
	ctx.ScratchDir = scratch
	// Prefetch decode memory is charged to this query's governor before a
	// stripe is handed to the elevator, so background decode stays inside
	// the admission's budget and is shed — not spilled for — under pressure.
	if view != nil && s.srv.Elevator != nil {
		ctx.Prefetch = exec.NewGovernedPrefetcher(s.srv.Elevator, ctx.Mem)
	}
	defer func() {
		// The scratch directory must not outlive the query, however it
		// ended: operators remove their spill files on Close, and this
		// sweep catches anything an abnormal unwind left behind.
		s.srv.FS.Remove(scratch, true)
		s.LastPeakMemoryBytes = ctx.Mem.PeakBytes()
		s.LastSpilledBytes = ctx.Mem.SpilledBytes()
		s.LastDecodedCacheHits, s.LastDecodedCacheMisses = 0, 0
		if view != nil {
			s.LastDecodedCacheHits = view.Hits.Load()
			s.LastDecodedCacheMisses = view.Misses.Load()
		}
		s.LastStripesSkipped = ctx.ScanStats.StripesSkipped.Load()
		s.LastDeleteStripesSkipped = ctx.ScanStats.DeleteStripesSkipped.Load()
		s.LastPrefetchedStripes = ctx.ScanStats.Prefetched.Load()
	}()
	comp := &exec.Compiler{
		Ctx:      ctx,
		MakeScan: s.makeScanFactory(ctx, snap),
		MakeForeign: func(f *plan.ForeignScan) (exec.Operator, error) {
			h, ok := s.srv.Registry.Handler(f.Handler)
			if !ok {
				return nil, fmt.Errorf("hs2: no storage handler %q", f.Handler)
			}
			return &federation.ForeignScanOp{Handler: h, Table: f.Table, Fields: f.Fields, Query: f.Query}, nil
		},
	}
	op, err := comp.Compile(rel)
	if err != nil {
		return nil, err
	}
	ctx.TargetStripes = int(s.confInt("hive.split.target.stripes"))
	ctx.PropsPlanning = s.confBool("hive.planner.properties")
	runner := &dag.Runner{
		Mode:            mode,
		ContainerLaunch: time.Duration(s.confInt("hive.container.launch.ms")) * time.Millisecond,
		FS:              s.srv.FS,
		ScratchDir:      scratch,
		Daemons:         s.srv.Daemons,
		Ctx:             ctx,
	}
	op, shape := runner.Prepare(op)
	s.LastPhysicalPlan = exec.ExplainPhysical(op)
	return runner.Run(op, shape)
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
