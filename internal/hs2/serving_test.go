package hs2

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/wm"
)

func servingWarehouse(t *testing.T) (*Server, *Session) {
	t.Helper()
	srv := NewServer(Config{})
	s := srv.NewSession()
	mustExec(t, s, `CREATE TABLE t (v BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2), (3)`)
	return srv, s
}

func mustExec(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	r, err := s.Execute(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return r
}

// TestResultCacheSnapshotPinned is the regression test for the result-cache
// TOCTOU: the watermarks were captured before runPlan took its own (fresh,
// per-scan) snapshot, so a write committing in between made the query store
// too-new rows under stale watermarks — and return rows newer than the
// snapshot its own cache lookup was keyed on. Post-fix, one snapshot pinned
// before the lookup drives the watermarks, every scan, and the Fill.
func TestResultCacheSnapshotPinned(t *testing.T) {
	srv, s := servingWarehouse(t)
	writer := srv.NewSession()

	fired := false
	s.testHookAfterLookup = func() {
		if fired {
			return
		}
		fired = true
		mustExec(t, writer, `INSERT INTO t VALUES (100)`)
	}
	res := mustExec(t, s, `SELECT sum(v) FROM t`)
	if !fired {
		t.Fatal("hook did not run: query did not reach the miss-fill path")
	}
	if got := res.Rows[0][0].I; got != 6 {
		t.Fatalf("query leaked rows newer than its snapshot: sum = %d, want 6", got)
	}
	s.testHookAfterLookup = nil

	// A reader at the post-write snapshot must see the new row, not the
	// cached pre-write result.
	res = mustExec(t, srv.NewSession(), `SELECT sum(v) FROM t`)
	if got := res.Rows[0][0].I; got != 106 {
		t.Fatalf("post-write reader got stale rows: sum = %d, want 106", got)
	}
}

// TestNormalizedAdmissionDigest is the regression test for WM history
// fragmentation: admission used the literal-bearing plan digest, so every
// literal variant of a query shape re-learned its peak-memory history from
// scratch. The serving path keys admission on the normalized digest.
func TestNormalizedAdmissionDigest(t *testing.T) {
	_, s := servingWarehouse(t)
	mustExec(t, s, `SELECT count(*) FROM t WHERE v > 1`)
	d1 := s.LastQueryDigest
	mustExec(t, s, `SELECT count(*) FROM t WHERE v > 2`)
	d2 := s.LastQueryDigest
	if d1 != d2 {
		t.Fatalf("literal variants fragment admission history:\n%s\n%s", d1, d2)
	}
	if !strings.Contains(d1, "?0") {
		t.Fatalf("admission digest is not normalized: %s", d1)
	}
	// A different shape must not share history.
	mustExec(t, s, `SELECT count(*) FROM t WHERE v < 2`)
	if s.LastQueryDigest == d1 {
		t.Fatal("different shapes must have distinct digests")
	}
}

// TestPlanCacheSharedAcrossSessions: the template compiled by one session's
// ad-hoc query serves another session's PREPARE/EXECUTE of the same shape.
func TestPlanCacheSharedAcrossSessions(t *testing.T) {
	srv, s := servingWarehouse(t)
	mustExec(t, s, `SELECT v FROM t WHERE v = 2 ORDER BY v`)

	s2 := srv.NewSession()
	mustExec(t, s2, `PREPARE q AS SELECT v FROM t WHERE v = 1 ORDER BY v`)
	res := mustExec(t, s2, `EXECUTE q (3)`)
	if !s2.LastPlanCacheHit {
		t.Fatal("EXECUTE did not reuse the template compiled by the other session")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("EXECUTE q (3) = %v, want one row [3]", res.Rows)
	}
}

// TestPlanCacheSchemaInvalidation: catalog changes flip the schema version
// component of the plan-cache key, forcing a recompile.
func TestPlanCacheSchemaInvalidation(t *testing.T) {
	_, s := servingWarehouse(t)
	mustExec(t, s, `SELECT count(*) FROM t`)
	mustExec(t, s, `SELECT count(*) FROM t`)
	if !s.LastPlanCacheHit {
		t.Fatal("repeat should hit the plan cache")
	}
	mustExec(t, s, `CREATE TABLE other (x BIGINT)`)
	mustExec(t, s, `SELECT count(*) FROM t`)
	if s.LastPlanCacheHit {
		t.Fatal("DDL must invalidate cached plans")
	}
	// Inserts (stats merges) must NOT invalidate: the hot path stays hot
	// under write traffic.
	mustExec(t, s, `SELECT count(*) FROM t`)
	if !s.LastPlanCacheHit {
		t.Fatal("setup: should hit again")
	}
	mustExec(t, s, `INSERT INTO t VALUES (4)`)
	res := mustExec(t, s, `SELECT count(*) FROM t`)
	if !s.LastPlanCacheHit {
		t.Fatal("insert must not invalidate cached plans")
	}
	if res.Rows[0][0].I != 4 {
		t.Fatalf("cached plan served stale data: %v", res.Rows)
	}
}

// TestPreparedStatementLifecycle covers EXECUTE argument validation and
// DEALLOCATE.
func TestPreparedStatementLifecycle(t *testing.T) {
	_, s := servingWarehouse(t)
	mustExec(t, s, `PREPARE q AS SELECT v FROM t WHERE v = 1`)
	if _, err := s.Execute(`EXECUTE q`); err == nil {
		t.Fatal("wrong arity should error")
	}
	if _, err := s.Execute(`EXECUTE q (v)`); err == nil {
		t.Fatal("non-literal argument should error")
	}
	res := mustExec(t, s, `EXECUTE q (-2 )`)
	if len(res.Rows) != 0 {
		t.Fatalf("EXECUTE q (-2) = %v, want empty", res.Rows)
	}
	mustExec(t, s, `DEALLOCATE PREPARE q`)
	if _, err := s.Execute(`EXECUTE q (1)`); err == nil {
		t.Fatal("EXECUTE after DEALLOCATE should error")
	}
	if _, err := s.Execute(`EXECUTE nosuch (1)`); err == nil {
		t.Fatal("EXECUTE of unknown name should error")
	}
}

// TestPlanCacheOffFallsBack: disabling the plan cache (or the 1.2 profile)
// uses the per-query pipeline and still answers correctly.
func TestPlanCacheOffFallsBack(t *testing.T) {
	_, s := servingWarehouse(t)
	s.SetConf("hive.query.plan.cache.enabled", "false")
	res := mustExec(t, s, `SELECT sum(v) FROM t`)
	if s.LastPlanCacheHit || res.Rows[0][0].I != 6 {
		t.Fatalf("plan-cache-off path: hit=%v rows=%v", s.LastPlanCacheHit, res.Rows)
	}
	// EXECUTE still works without the cache: the template compiles per run.
	mustExec(t, s, `PREPARE q AS SELECT sum(v) FROM t WHERE v < 10`)
	res = mustExec(t, s, `EXECUTE q (3)`)
	if res.Rows[0][0].I != 3 {
		t.Fatalf("EXECUTE with plan cache off = %v, want 3", res.Rows)
	}
}

// TestExplainOnlyCompiles: EXPLAIN stops the pipeline after the compile
// stage. With the pool's one slot held and a 1 ms queue timeout a SELECT
// cannot be admitted — EXPLAIN of the same statement still answers, builds
// no execution context (the scratch sequence does not move), reads and
// writes nothing in the file system and leaves the result cache untouched.
func TestExplainOnlyCompiles(t *testing.T) {
	srv, s := servingWarehouse(t)
	for _, stmt := range []string{
		`CREATE RESOURCE PLAN p`,
		`CREATE POOL p.only WITH alloc_fraction=1.0, query_parallelism=1`,
		`ALTER PLAN p SET DEFAULT POOL = only`,
		`ALTER RESOURCE PLAN p ENABLE ACTIVATE`,
	} {
		mustExec(t, s, stmt)
	}
	held, err := srv.WorkloadManager().Admit(context.Background(), "only", wm.AdmitRequest{Digest: "holder"})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Release()
	s.SetConf("hive.wm.queue.timeout.ms", "1")
	const q = `SELECT sum(v) FROM t WHERE v > 1`
	if _, err := s.Execute(q); !errors.Is(err, wm.ErrQueueTimeout) {
		t.Fatalf("setup: SELECT with the pool's slot held: err = %v, want the queue timeout", err)
	}

	seq, io := srv.querySeq.Load(), srv.FS.IOStats()
	hits, misses, waits := srv.Results.Stats()
	res := mustExec(t, s, `EXPLAIN `+q)
	if text := res.Rows[0][0].S; !strings.Contains(text, "TableScan") || !strings.HasPrefix(text, s.LastPlan) {
		t.Errorf("EXPLAIN text does not start with LastPlan:\n%s\n%s", text, s.LastPlan)
	}
	if got := srv.querySeq.Load(); got != seq {
		t.Errorf("EXPLAIN built %d execution context(s)", got-seq)
	}
	if got := srv.FS.IOStats(); got != io {
		t.Errorf("EXPLAIN touched the file system: %+v, was %+v", got, io)
	}
	if h, m, w := srv.Results.Stats(); h != hits || m != misses || w != waits {
		t.Errorf("EXPLAIN touched the result cache: %d/%d/%d, was %d/%d/%d", h, m, w, hits, misses, waits)
	}
	if s.LastPhysicalPlan != "" || s.LastPeakMemoryBytes != 0 {
		t.Errorf("EXPLAIN reports a run: %+v", s.Observations)
	}
}
