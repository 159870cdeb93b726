package hive

import (
	"strings"
	"sync"
	"testing"
)

// spoolQueries repeat a subtree so the shared-work optimizer inserts a
// Spool; the self-join shares the scan, the derived-table join shares a
// whole aggregate.
var spoolQueries = []string{
	`SELECT a.k, b.grp, b.v FROM facts a, facts b WHERE a.k = b.k`,
	`SELECT a.grp, a.c, b.c FROM (SELECT grp, COUNT(*) AS c FROM facts GROUP BY grp) a
	   JOIN (SELECT grp, COUNT(*) AS c FROM facts GROUP BY grp) b ON a.grp = b.grp`,
}

// TestSpoolSharedParallel checks spooled subtrees feeding parallel worker
// pipelines: single-flight materialization, clones splitting the published
// content through the shared cursor, and results equal to serial.
func TestSpoolSharedParallel(t *testing.T) {
	_, s := spillWarehouse(t, 500)
	for _, q := range spoolQueries {
		s.SetConf("hive.parallelism", "1")
		base, err := s.Exec(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		if !strings.Contains(s.inner.LastPlan, "Spool") {
			t.Fatalf("%s: plan has no Spool, shared-work not exercised:\n%s", q, s.inner.LastPlan)
		}
		for _, dop := range []string{"2", "4", "8"} {
			s.SetConf("hive.parallelism", dop)
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("dop=%s %s: %v", dop, q, err)
			}
			if sortedLines(res) != sortedLines(base) {
				t.Errorf("dop=%s %s: parallel spool results diverge from serial", dop, q)
			}
		}
	}
}

// TestSpoolSpillEquivalence is the budgeted-vs-unbudgeted property for the
// spool replay buffer: with a tiny budget the materialization flushes to
// run files, and every consumer's replay must reproduce the unbudgeted
// result exactly. The ORDER BY wrapper pins a total order so the
// comparison is byte-wise.
func TestSpoolSpillEquivalence(t *testing.T) {
	wh, s := spillWarehouse(t, 500)
	queries := []string{
		`SELECT a.k, b.grp, b.v FROM facts a, facts b WHERE a.k = b.k ORDER BY a.k, b.grp, b.v`,
		`SELECT a.grp, a.c, b.c FROM (SELECT grp, COUNT(*) AS c FROM facts GROUP BY grp) a
		   JOIN (SELECT grp, COUNT(*) AS c FROM facts GROUP BY grp) b ON a.grp = b.grp
		   ORDER BY a.grp`,
	}
	for _, q := range queries {
		for _, dop := range []string{"1", "4"} {
			s.SetConf("hive.parallelism", dop)
			s.SetConf("hive.query.max.memory", "0")
			base, err := s.Exec(q)
			if err != nil {
				t.Fatalf("unbudgeted dop=%s %s: %v", dop, q, err)
			}
			s.SetConf("hive.query.max.memory", "16384")
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("budget=16K dop=%s %s: %v", dop, q, err)
			}
			if res.String() != base.String() {
				t.Errorf("dop=%s %s: budgeted spool output diverges byte-wise", dop, q)
			}
			if strings.Contains(q, "a.k = b.k") && s.inner.LastSpilledBytes == 0 {
				t.Errorf("dop=%s %s: 16K budget did not spill", dop, q)
			}
			if leaks := scratchLeaks(t, wh); len(leaks) != 0 {
				t.Fatalf("dop=%s %s: leaked scratch files: %v", dop, q, leaks)
			}
		}
	}
	s.SetConf("hive.query.max.memory", "0")
}

// TestSpoolSharedParallelRace hammers one spool with concurrent worker
// consumers across two sessions at DOP 8 and a tiny budget; the assertions
// are in the -race detector (single-flight materialization, immutable
// publication, shared-cursor splitting) and the result comparison.
func TestSpoolSharedParallelRace(t *testing.T) {
	wh, s := spillWarehouse(t, 400)
	q := `SELECT a.k, b.grp, b.v FROM facts a, facts b WHERE a.k = b.k`
	s.SetConf("hive.parallelism", "1")
	base, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedLines(base)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := wh.Session()
			ses.SetConf("hive.query.results.cache.enabled", "false")
			ses.SetConf("hive.parallelism", "8")
			ses.SetConf("hive.query.max.memory", "16384")
			for i := 0; i < 3; i++ {
				res, err := ses.Exec(q)
				if err != nil {
					t.Errorf("parallel spool query: %v", err)
					return
				}
				if sortedLines(res) != want {
					t.Error("parallel spool results diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	if leaks := scratchLeaks(t, wh); len(leaks) != 0 {
		t.Fatalf("leaked scratch files: %v", leaks)
	}
}
