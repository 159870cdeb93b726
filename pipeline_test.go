package hive

import (
	"strings"
	"testing"
)

// TestExplainShowsThePlanThatRuns: EXPLAIN goes through the same compile
// stage as execution, so for each of the 45 pinned statements the text it
// returns (minus its io: line) is the LastPlan of the execution that
// follows — with the plan cache on (parameterized templates) and off (the
// literal pipeline). Before the pipeline, EXPLAIN always planned the literal
// text while execution bound a parameterized template, and the two chose
// different join orders for tpcds_q88.
func TestExplainShowsThePlanThatRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping TPC-DS setup")
	}
	s := planGoldenWarehouse(t)
	// Column statistics are what let the literal and the parameterized
	// compile of one statement order its joins differently.
	for _, row := range s.MustExec(`SHOW TABLES`).Rows {
		s.MustExec("ANALYZE TABLE " + row[0].S + " COMPUTE STATISTICS")
	}
	for _, planCache := range []string{"true", "false"} {
		s.SetConf("hive.query.plan.cache.enabled", planCache)
		for name, q := range planGoldenQueries() {
			res, err := s.Exec("EXPLAIN " + q)
			if err != nil {
				t.Fatalf("%s: EXPLAIN: %v", name, err)
			}
			explained := res.Rows[0][0].S
			if i := strings.Index(explained, "io: "); i >= 0 {
				explained = explained[:i]
			}
			if _, err := s.Exec(q); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ran := s.Internal().LastPlan; explained != ran {
				t.Errorf("%s (plan cache %s): EXPLAIN is not the plan that ran\nexplain:\n%s\nran:\n%s", name, planCache, explained, ran)
			}
		}
	}
}

// TestObservationsBelongToOneQuery: the Last* fields are published together
// when a query exits, so none of them can describe an older query than its
// neighbours. B fills the result cache; A, a different shape, spills under
// a small budget; B again is a cache hit — and reports B's plan and
// nothing of A's run. A query that fails still publishes its own digest
// and peak.
func TestObservationsBelongToOneQuery(t *testing.T) {
	_, s := open(t)
	createOrdTable(s)
	in := s.Internal()
	const (
		queryB = `SELECT grp, COUNT(*) FROM ord GROUP BY grp`
		queryA = `SELECT k, tag FROM ord ORDER BY tag DESC`
	)

	s.MustExec(queryB)
	planB, digestB := in.LastPlan, in.LastQueryDigest
	if in.LastCacheHit || in.LastPhysicalPlan == "" || in.LastPeakMemoryBytes == 0 {
		t.Fatalf("setup: B's first run should execute: %+v", in.Observations)
	}

	s.SetConf("hive.query.max.memory", "2048")
	s.MustExec(queryA)
	if in.LastSpilledBytes == 0 || in.LastPlan == planB {
		t.Fatalf("setup: A should spill under a 2 KiB budget and have its own plan: %+v", in.Observations)
	}

	s.MustExec(queryB)
	if !in.LastCacheHit {
		t.Fatal("B's second run should be a result-cache hit")
	}
	if in.LastPlan != planB || in.LastQueryDigest != digestB {
		t.Errorf("hit reports another query's plan or digest:\n%s\n%s", in.LastPlan, in.LastQueryDigest)
	}
	if in.LastPhysicalPlan != "" || in.LastPeakMemoryBytes != 0 || in.LastSpilledBytes != 0 ||
		in.LastStripesSkipped != 0 || in.LastDeleteStripesSkipped != 0 ||
		in.LastDecodedCacheHits != 0 || in.LastDecodedCacheMisses != 0 || in.LastPrefetchedStripes != 0 {
		t.Errorf("a result-cache hit ran nothing, yet reports a run: %+v", in.Observations)
	}

	// A self-join far beyond a 1 ms deadline: the error path publishes too.
	s.SetConf("hive.query.max.memory", "0")
	s.SetConf("hive.query.timeout", "1")
	if _, err := s.Query(`SELECT a.k, b.k FROM ord a, ord b WHERE a.grp = b.grp ORDER BY a.k, b.k`); err == nil {
		t.Fatal("self-join finished under a 1ms deadline; expected a timeout")
	}
	if in.LastQueryDigest == digestB || !strings.Contains(in.LastQueryDigest, "ord") {
		t.Errorf("failed query did not publish its own digest: %q", in.LastQueryDigest)
	}
	if in.LastCacheHit || in.LastPlan == planB || in.LastPlan == "" {
		t.Errorf("failed query did not publish its own observations: %+v", in.Observations)
	}
}

// TestExecuteRecompilesAfterDDL: EXECUTE reports what it did. While its
// template is in the plan cache nothing compiles (LastCompileNanos 0); a
// DDL bumps the schema version, the next EXECUTE recompiles — a miss with a
// measured compile — and the one after that is bind-and-run again.
func TestExecuteRecompilesAfterDDL(t *testing.T) {
	_, s := open(t)
	createOrdTable(s)
	in := s.Internal()
	s.SetConf("hive.query.results.cache.enabled", "false")
	s.MustExec(`PREPARE q AS SELECT COUNT(*) FROM ord WHERE grp = 1`)
	s.MustExec(`EXECUTE q (2)`)
	if !in.LastPlanCacheHit || in.LastCompileNanos != 0 {
		t.Fatalf("EXECUTE with a cached template: hit=%v compile=%dns, want a hit and 0", in.LastPlanCacheHit, in.LastCompileNanos)
	}
	s.MustExec(`CREATE TABLE bump (x INT)`)
	res := s.MustExec(`EXECUTE q (3)`)
	if in.LastPlanCacheHit || in.LastCompileNanos <= 0 {
		t.Errorf("EXECUTE after DDL: hit=%v compile=%dns, want a miss and a measured recompile", in.LastPlanCacheHit, in.LastCompileNanos)
	}
	if got := res.Rows[0][0].I; got != 96 {
		t.Errorf("EXECUTE q (3) after DDL = %d, want 96", got)
	}
	s.MustExec(`EXECUTE q (3)`)
	if !in.LastPlanCacheHit || in.LastCompileNanos != 0 {
		t.Errorf("next EXECUTE: hit=%v compile=%dns, want a hit and 0", in.LastPlanCacheHit, in.LastCompileNanos)
	}
}
