package hs2

import (
	"context"
	"fmt"
	"maps"
	"time"

	"repro/internal/analyze"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/llap"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/resultcache"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wm"
)

// query is one SELECT on its way through the driver pipeline: paper
// Figure 2 (parse → plan → optimize → physical plan → DAG → run) with the
// plan cache and the results cache of §4.3 as stages of it. Every SELECT
// the server runs — ad-hoc, EXECUTE, EXPLAIN, and the selects inside DML
// and DDL — is one of these handed to Session.run, which walks the stages
// in this order; what the caller filled in decides what a stage skips:
//
//	compile       parameterize → plan cache → bind → federation pushdown;
//	              or the literal pipeline (analyze → MV rewrite → optimize →
//	              pushdown) when the parameterized form is unusable. EXECUTE
//	              (stmt) arrives parameterized; a hand-built plan (rel)
//	              skips the stage
//	              — EXPLAIN stops here and renders —
//	pin           one transaction snapshot for everything below
//	lookup        results cache; skipped for internal, nondeterministic or
//	              federated queries and when the cache is off. A hit returns
//	execute       admit (skipped without a resource plan) → build context →
//	              physical plan → run → observe, all under hive.query.timeout
//	fill          revalidate the watermarks and publish the rows; skipped
//	              with lookup
//	publish       the query's Observations replace the session's, on every
//	              outcome
type query struct {
	// Set by the caller. One of sel, stmt or rel says what to run.
	sel      *sql.SelectStmt // the statement as written
	stmt     *preparedStmt   // EXECUTE: the parameterized form, with args
	args     []types.Datum
	rel      plan.Rel // also compile's product: the plan that runs
	internal bool     // runs for a DML/DDL statement: literal compile, no caches
	explain  bool

	s *Session

	// compile's other products.
	cols          []string
	parameterized bool
	deterministic bool
	// admKey keys workload-management admission and its peak-memory
	// history; on the parameterized path it is the normalized digest, so
	// all literal variants of a shape share one history entry.
	admKey string

	obs Observations
}

// run walks q through the pipeline.
func (s *Session) run(q *query) (*Result, error) {
	q.s = s
	defer func() { s.Observations = q.obs }()

	if err := q.compile(); err != nil {
		return nil, err
	}
	if q.explain {
		return q.rendered(), nil
	}

	// One snapshot, pinned before the result-cache lookup, drives the lookup
	// watermarks, every table scan, and the Fill — a write landing between
	// lookup and run cannot publish too-new rows under stale watermarks, and
	// multi-scan plans stay consistent when writes commit mid-run.
	pinned := s.srv.MS.Txns().GetSnapshot()

	useCache := !q.internal && s.opts.resultCache && q.deterministic
	var marks resultcache.Snapshot
	if useCache {
		marks = s.snapshotAt(q.rel, pinned)
		for _, w := range marks {
			if w < 0 {
				useCache = false // external source: not cacheable
				break
			}
		}
	}
	// Literal variants share a template and an admission history but not
	// result rows: the rendered arguments are part of the result key.
	resKey := q.admKey
	if useCache {
		if q.parameterized {
			resKey += "|args=" + renderArgs(q.args)
		}
		for {
			cols, rows, outcome := s.srv.Results.Lookup(resKey, marks)
			if outcome == resultcache.Hit {
				q.obs.LastCacheHit = true
				return &Result{Columns: cols, Rows: rows}, nil
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

	rows, err := q.execute(pinned)
	if useCache {
		// Re-validate before publishing: the rows were computed at the
		// pinned snapshot, so its watermarks must still be the ones the
		// lookup reserved. A mismatch would mean the watermark derivation
		// itself drifted — never publish under watermarks that don't
		// describe the rows.
		if err == nil && maps.Equal(s.snapshotAt(q.rel, pinned), marks) {
			s.srv.Results.Fill(resKey, q.cols, rows, marks)
		} else {
			s.srv.Results.Abandon(resKey, marks)
		}
	}
	if err != nil {
		return nil, err
	}
	return &Result{Columns: q.cols, Rows: rows}, nil
}

// runPlan runs a plan a DML or DDL statement built by hand.
func (s *Session) runPlan(rel plan.Rel) ([][]types.Datum, error) {
	res, err := s.run(&query{rel: rel, internal: true})
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// compile produces the plan that runs, one of two ways. The parameterized
// way (paper §4.3) hoists literals, fetches or builds the optimized
// template under the normalized digest, binds the hoisted values and pushes
// computation to federated sources. The literal way plans the text as
// written; it serves when the parameterized form is unusable: the plan
// cache is off, a materialized-view rewrite is possible (a rewritten plan
// is only valid for the literals and MV state it was rewritten under), the
// select is internal to a DML/DDL statement, or the statement only
// analyzes with concrete literals (e.g. type-dependent coercions).
func (q *query) compile() error {
	s, o := q.s, &q.s.opts
	start := time.Now()
	db, digest := s.db, ""
	var tmpl *plancache.Entry
	switch {
	case q.rel != nil:
		// A plan DML/DDL built by hand: nothing to compile.
	case q.stmt != nil:
		// EXECUTE arrives parameterized and has no literal form to fall
		// back on.
		db, digest = q.stmt.db, q.stmt.digest
		var err error
		if tmpl, q.obs.LastPlanCacheHit, err = s.template(db, digest, q.stmt.norm); err != nil {
			return err
		}
	case !q.internal && o.planCache && !(o.planner.mvRewrite && len(s.srv.MS.MaterializedViews()) > 0):
		var norm *sql.SelectStmt
		norm, q.args, digest = sql.Parameterize(q.sel)
		// An error leaves tmpl nil: the literal pipeline decides.
		tmpl, q.obs.LastPlanCacheHit, _ = s.template(db, digest, norm)
	}
	if tmpl == nil && q.rel == nil {
		rel, err := analyze.New(s.srv.MS, s.db).AnalyzeSelect(q.sel)
		if err != nil {
			return err
		}
		if o.planner.mvRewrite {
			if rewritten, changed := s.mvRewriter().Rewrite(rel, s.db); changed {
				rel, q.obs.LastRewriteUsedMV = rewritten, true
			}
		}
		q.rel = s.srv.Registry.PushComputation(opt.New(s.srv.MS, o.planner.Options).Optimize(rel))
		q.deterministic = sql.IsDeterministic(q.sel)
	}
	if q.stmt == nil || !q.obs.LastPlanCacheHit {
		q.obs.LastCompileNanos = time.Since(start).Nanoseconds()
	}
	if tmpl != nil {
		bound, err := plan.BindParams(tmpl.Rel, q.args)
		if err != nil {
			return err
		}
		// Federation pushdown folds bound literals into foreign queries,
		// so it runs per execution, after binding.
		q.rel = s.srv.Registry.PushComputation(bound)
		q.cols, q.deterministic, q.parameterized = tmpl.Columns, tmpl.Deterministic, true
		q.admKey = db + "|" + digest
	} else {
		q.cols = columnNames(q.rel)
		q.admKey = s.db + "|" + q.rel.Digest()
	}
	q.obs.LastQueryDigest = q.admKey
	if !q.internal {
		// Eager: a lazy LastPlan needs ROADMAP item 1(d)'s API change.
		q.obs.LastPlan = plan.Explain(q.rel)
	}
	return nil
}

// template returns the optimized plan template of a parameterized
// statement: from the plan cache when it is on and has it, analyzed,
// optimized and cached otherwise. PREPARE calls it to compile eagerly;
// every execution reaches it through compile.
func (s *Session) template(db, digest string, norm *sql.SelectStmt) (e *plancache.Entry, hit bool, err error) {
	key := plancache.Key{
		DB:     db,
		Digest: digest,
		Schema: s.srv.MS.SchemaVersion(),
		Conf:   s.opts.planner.fingerprint(),
	}
	if s.opts.planCache {
		if e = s.srv.Plans.Get(key); e != nil {
			return e, true, nil
		}
	}
	rel, err := analyze.New(s.srv.MS, db).AnalyzeSelect(norm)
	if err != nil {
		return nil, false, err
	}
	rel = opt.New(s.srv.MS, s.opts.planner.Options).Optimize(rel)
	e = &plancache.Entry{Rel: rel, Columns: columnNames(rel), Deterministic: sql.IsDeterministic(norm)}
	if s.opts.planCache {
		s.srv.Plans.Put(key, e)
	}
	return e, false, nil
}

func columnNames(rel plan.Rel) []string {
	schema := rel.Schema()
	cols := make([]string, len(schema))
	for i, f := range schema {
		cols[i] = f.Name
	}
	return cols
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

// rendered is EXPLAIN's result: the plan compile produced — the one that
// would run — and the I/O path its scans would take. With the elevator on,
// scans are served from (and hint ahead into) the decoded-vector cache; the
// runtime counters land in Last{DecodedCacheHits,...} after execution.
func (q *query) rendered() *Result {
	text := q.obs.LastPlan
	if q.s.opts.elevator {
		text += fmt.Sprintf("io: llap elevator (threads=%d, decoded-cache=%d bytes)\n",
			q.s.srv.IOThreads(), q.s.srv.Decoded.Capacity())
	}
	return &Result{Columns: []string{"plan"}, Rows: [][]types.Datum{{types.NewString(text)}}}
}

// execute is everything that happens at the pinned snapshot: admission,
// the execution context, the physical plan, the run, and the observations
// workload management feeds on. The whole of it — including the admission
// queue wait — is bounded by hive.query.timeout and canceled by
// Session.Close. hivelint roots its snapshot-pinning zone here: nothing
// execute reaches may open a fresh snapshot.
func (q *query) execute(snap txn.Snapshot) ([][]types.Datum, error) {
	s, o := q.s, &q.s.opts
	qctx := s.ctx
	if o.timeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, o.timeout)
		defer cancel()
	}

	// Admit, when a resource plan is active and maps this session to a
	// pool. The context covers the queue wait: client disconnect or
	// deadline removes the waiter.
	var adm *wm.Admission
	mgr, pool := s.srv.WorkloadManager(), ""
	if mgr != nil {
		pool = mgr.PoolFor(s.User, s.Application)
	}
	if pool != "" {
		var err error
		adm, err = mgr.Admit(qctx, pool, wm.AdmitRequest{Digest: q.admKey, QueueTimeout: o.queueTimeout})
		if err != nil {
			return nil, err
		}
		defer adm.Release()
	}
	start := time.Now()

	ctx := s.newExecContext(qctx, o, adm)
	// The scratch directory must not outlive the query, however it ended:
	// operators remove their spill files on Close, and this sweep catches
	// anything an abnormal unwind left behind.
	defer s.srv.FS.Remove(ctx.ScratchDir, true)

	rows, err := q.runPhysical(ctx, snap)

	q.obs.LastPeakMemoryBytes = ctx.Mem.PeakBytes()
	q.obs.LastSpilledBytes = ctx.Mem.SpilledBytes()
	if view, ok := ctx.Vectors.(*llap.QueryVectorView); ok {
		q.obs.LastDecodedCacheHits = view.Hits.Load()
		q.obs.LastDecodedCacheMisses = view.Misses.Load()
	}
	q.obs.LastStripesSkipped = ctx.ScanStats.StripesSkipped.Load()
	q.obs.LastDeleteStripesSkipped = ctx.ScanStats.DeleteStripesSkipped.Load()
	q.obs.LastPrefetchedStripes = ctx.ScanStats.Prefetched.Load()
	if pool == "" {
		return rows, err
	}
	// Feed the observed peak back into the admission estimate history —
	// the governor accounts peaks even for failed runs, and a killed
	// memory hog is exactly what the next admission should know about.
	mgr.Observe(q.admKey, q.obs.LastPeakMemoryBytes)
	if err != nil {
		return nil, err
	}
	// A KILL trigger turns into an error, reproducing §5.2 semantics. The
	// memory metrics are the governor's, closing the loop between operator
	// memory accounting and resource-plan guardrails (paper §4.4).
	action, _ := mgr.Evaluate(pool, wm.QueryMetrics{
		TotalRuntimeMS:   time.Since(start).Milliseconds(),
		PeakMemoryBytes:  q.obs.LastPeakMemoryBytes,
		SpilledBytes:     q.obs.LastSpilledBytes,
		StripesSkipped:   q.obs.LastStripesSkipped + q.obs.LastDeleteStripesSkipped,
		DecodedCacheHits: q.obs.LastDecodedCacheHits,
	})
	if action == wm.ActionKill {
		return nil, fmt.Errorf("hs2: query killed by workload manager trigger in pool %s", pool)
	}
	return rows, nil
}

// newExecContext builds a query's execution context from its options, its
// admission (nil when no resource plan gates it) and its cancellation.
func (s *Session) newExecContext(qctx context.Context, o *queryOptions, adm *wm.Admission) *exec.Context {
	ctx := exec.NewContext()
	ctx.GoCtx = qctx
	ctx.TargetStripes = o.targetStripes
	ctx.PropsPlanning = o.props
	if o.llapIO {
		ctx.Chunks = s.srv.Cache
		ctx.Readers = s.srv.MetaCache
	}
	// Intra-query parallelism rides on LLAP executor slots (paper §5.1).
	if o.mode == dag.ModeLLAP {
		ctx.DOP = o.dop
		// The admission's DOP is a cap, not a grant: a degraded admission
		// runs the query narrower so a saturated pool degrades instead of
		// oversubscribing executors.
		if adm != nil && adm.DOP > 0 && ctx.DOP > adm.DOP {
			ctx.DOP = adm.DOP
		}
		ctx.Slots = s.srv.Daemons
	}
	// Memory governance: the blocking operators account against the budget
	// and spill to the query scratch directory when denied (0 keeps
	// accounting for peak observability without ever denying). The
	// admission's QueryBudget makes the pool's reservation sound: the
	// governor denies growth past what the pool granted, so the query
	// spills instead of blowing the pool's aggregate budget. An explicit
	// smaller session budget still wins.
	budget := o.budget
	if adm != nil && adm.QueryBudget > 0 && (budget <= 0 || adm.QueryBudget < budget) {
		budget = adm.QueryBudget
	}
	ctx.Mem = exec.NewGovernor(budget)
	ctx.FS = s.srv.FS
	// The server-wide query sequence keeps concurrent queries' scratch
	// directories disjoint — a shared directory would let the first
	// finisher's sweep delete the other's live spill files.
	ctx.ScratchDir = fmt.Sprintf("%s/_scratch/q%d_%d", s.srv.MS.Root(), time.Now().UnixNano(), s.srv.querySeq.Add(1))
	// I/O elevator (paper §5.1): serve and publish decoded vectors and let
	// scans hint upcoming stripes to the async decode pool. Off, the scan
	// path is byte-identical to the synchronous one — the elevator and its
	// cache only change timing, never results. Prefetch decode memory is
	// charged to this query's governor before a stripe is handed over, so
	// background decode stays inside the admission's budget and is shed —
	// not spilled for — under pressure.
	if o.elevator {
		ctx.Vectors = &llap.QueryVectorView{Cache: s.srv.Decoded}
		if s.srv.Elevator != nil {
			ctx.Prefetch = exec.NewGovernedPrefetcher(s.srv.Elevator, ctx.Mem)
		}
	}
	return ctx
}

// runPhysical compiles the plan to operators reading at snap, prepares
// them for the runtime mode and runs them.
func (q *query) runPhysical(ctx *exec.Context, snap txn.Snapshot) ([][]types.Datum, error) {
	s := q.s
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
	op, err := comp.Compile(q.rel)
	if err != nil {
		return nil, err
	}
	runner := &dag.Runner{
		Mode:            s.opts.mode,
		ContainerLaunch: s.opts.containerLaunch,
		FS:              s.srv.FS,
		ScratchDir:      ctx.ScratchDir,
		Daemons:         s.srv.Daemons,
		Ctx:             ctx,
	}
	op, shape := runner.Prepare(op)
	q.obs.LastPhysicalPlan = exec.ExplainPhysical(op)
	return runner.Run(op, shape)
}
