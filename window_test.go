package hive

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// windowWarehouse builds a fact table with heavy order-key ties, NULLs and
// enough partitions to exercise every window path: peer-group frames,
// multi-function specs, spilling under tiny budgets.
func windowWarehouse(t *testing.T, rows int) (*Warehouse, *Session) {
	t.Helper()
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() })
	s := wh.Session()
	createWindowTable(s, rows)
	s.SetConf("hive.query.results.cache.enabled", "false")
	return wh, s
}

// createWindowTable loads w: k repeats heavily within each partition g
// (peer groups), and every 11th k is NULL.
func createWindowTable(s *Session, rows int) {
	s.MustExec(`CREATE TABLE w (g INT, k INT, v BIGINT, s STRING)`)
	for batch := 0; batch < (rows+99)/100; batch++ {
		var b strings.Builder
		b.WriteString("INSERT INTO w VALUES ")
		n := 100
		if rest := rows - batch*100; rest < n {
			n = rest
		}
		for i := 0; i < n; i++ {
			r := batch*100 + i
			if i > 0 {
				b.WriteString(", ")
			}
			if r%11 == 3 {
				fmt.Fprintf(&b, "(%d, NULL, %d, 'x%d')", r%7, (r*31)%83, r%19)
			} else {
				fmt.Fprintf(&b, "(%d, %d, %d, 'x%d')", r%7, r%5, (r*31)%83, r%19)
			}
		}
		s.MustExec(b.String())
	}
}

// TestWindowPeerRowsSharedFrame is the RANGE-frame regression: with the
// default frame, rows tied on the ORDER BY key are peers and share one
// running-aggregate result (the old per-row running value returned partial
// sums on ties).
func TestWindowPeerRowsSharedFrame(t *testing.T) {
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	s.MustExec(`CREATE TABLE p (g INT, k INT, v BIGINT)`)
	s.MustExec(`INSERT INTO p VALUES (1, 1, 10), (1, 1, 20), (1, 2, 5), (1, 2, 7), (1, 3, 1), (2, 1, 100)`)

	got := s.MustExec(`SELECT g, k, v, SUM(v) OVER (PARTITION BY g ORDER BY k) AS rs
		FROM p ORDER BY g, k, v`).String()
	want := strings.Join([]string{
		"1|1|10|30", // peers k=1 share the full 10+20
		"1|1|20|30",
		"1|2|5|42", // 30 + 5 + 7
		"1|2|7|42",
		"1|3|1|43",
		"2|1|100|100",
	}, "\n")
	if got != want {
		t.Errorf("running sum over peers:\ngot\n%s\nwant\n%s", got, want)
	}

	// COUNT shares frames the same way.
	got = s.MustExec(`SELECT k, COUNT(*) OVER (PARTITION BY g ORDER BY k) AS rc
		FROM p WHERE g = 1 ORDER BY k, v`).String()
	want = strings.Join([]string{"1|2", "1|2", "2|4", "2|4", "3|5"}, "\n")
	if got != want {
		t.Errorf("running count over peers:\ngot\n%s\nwant\n%s", got, want)
	}
}

// TestWindowRegressionSerialVsParallel runs the window suite — ties, NULL
// order keys, DESC, several functions over one partition spec, rank vs
// dense_rank, empty input — at DOP 1/2/4 and checks parallel output equals
// serial byte for byte (the outer ORDER BY pins a total order).
func TestWindowRegressionSerialVsParallel(t *testing.T) {
	_, s := windowWarehouse(t, 400)
	queries := []string{
		// Multiple functions over one partition spec: a single shared pass.
		`SELECT g, k, v, SUM(v) OVER (PARTITION BY g ORDER BY k), COUNT(*) OVER (PARTITION BY g ORDER BY k),
		        MIN(v) OVER (PARTITION BY g ORDER BY k)
		   FROM w ORDER BY g, k, v, s`,
		// row_number needs a total order: among rows tied on the window
		// ORDER BY it numbers in arrival order, which a parallel scan does
		// not fix ((g, k, v, s) is unique in this table).
		`SELECT g, k, v, s, row_number() OVER (PARTITION BY g ORDER BY k, v, s)
		   FROM w ORDER BY g, k, v, s`,
		// rank vs dense_rank on a tie-heavy DESC key.
		`SELECT g, k, rank() OVER (PARTITION BY g ORDER BY k DESC), dense_rank() OVER (PARTITION BY g ORDER BY k DESC)
		   FROM w ORDER BY g, k, v, s`,
		// Mixed specs in one SELECT: two groups, one pass each.
		`SELECT g, k, SUM(v) OVER (PARTITION BY g ORDER BY k), AVG(v) OVER (PARTITION BY k ORDER BY g),
		        MAX(v) OVER (PARTITION BY g)
		   FROM w ORDER BY g, k, v, s`,
		// Whole-partition aggregate (no ORDER BY) plus NULLs in the key.
		`SELECT g, k, COUNT(k) OVER (PARTITION BY g), SUM(v) OVER (ORDER BY k)
		   FROM w ORDER BY g, k, v, s`,
		// Empty input.
		`SELECT g, SUM(v) OVER (PARTITION BY g ORDER BY k) FROM w WHERE g > 99 ORDER BY g`,
	}
	for _, q := range queries {
		s.SetConf("hive.parallelism", "1")
		base, err := s.Exec(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		for _, dop := range []string{"2", "4"} {
			s.SetConf("hive.parallelism", dop)
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("dop=%s %s: %v", dop, q, err)
			}
			if res.String() != base.String() {
				t.Errorf("dop=%s %s: parallel output diverges from serial", dop, q)
			}
		}
	}
}

// TestBeyondMemoryWindow is the acceptance check: a window query whose
// input is four times its memory budget completes with output byte-identical
// to the unlimited-budget run, actually spills (observable in the session
// accounting that feeds wm.QueryMetrics.SpilledBytes), and sweeps its
// scratch files.
func TestBeyondMemoryWindow(t *testing.T) {
	wh, s := windowWarehouse(t, 2000)
	queries := []string{
		`SELECT g, k, v, s, SUM(v) OVER (PARTITION BY g ORDER BY k), rank() OVER (PARTITION BY g ORDER BY k) FROM w`,
		`SELECT g, k, SUM(v) OVER (PARTITION BY g ORDER BY k), MIN(v) OVER (PARTITION BY k ORDER BY g DESC) FROM w`,
	}
	for _, q := range queries {
		s.SetConf("hive.parallelism", "1")
		s.SetConf("hive.query.max.memory", "0")
		base, err := s.Exec(q)
		if err != nil {
			t.Fatalf("unbudgeted %s: %v", q, err)
		}
		if got := s.inner.LastSpilledBytes; got != 0 {
			t.Fatalf("unbudgeted run spilled %d bytes", got)
		}
		// A quarter of what the unbudgeted run held: the window's columnar
		// store is the largest part of that peak, so the budget undercuts it
		// whatever a stored row costs.
		budget := s.inner.LastPeakMemoryBytes / 4
		s.SetConf("hive.query.max.memory", fmt.Sprint(budget))
		res, err := s.Exec(q)
		if err != nil {
			t.Fatalf("budget=%d %s: %v", budget, q, err)
		}
		// Arrival-order emission must survive the external pass exactly:
		// no outer ORDER BY, the window operator's own order is compared.
		if res.String() != base.String() {
			t.Errorf("%s: budgeted window output diverges byte-wise", q)
		}
		if s.inner.LastSpilledBytes == 0 {
			t.Errorf("%s: budget %d (a quarter of the resident peak) over 2000 rows did not spill", q, budget)
		}
		if s.inner.LastPeakMemoryBytes == 0 {
			t.Errorf("%s: no peak memory accounted", q)
		}
		if leaks := scratchLeaks(t, wh); len(leaks) != 0 {
			t.Fatalf("%s: leaked scratch files: %v", q, leaks)
		}
		// Parallel input to the window must agree on the multiset.
		s.SetConf("hive.parallelism", "4")
		pres, err := s.Exec(q)
		if err != nil {
			t.Fatalf("dop=4 budget=%d %s: %v", budget, q, err)
		}
		if sortedLines(pres) != sortedLines(base) {
			t.Errorf("%s: dop=4 budgeted results diverge", q)
		}
	}
}

// TestWindowSpillFeedsTriggers checks the governor loop end to end for
// windows: spilled bytes from the external window pass must reach the
// workload manager's spilled_bytes trigger.
func TestWindowSpillFeedsTriggers(t *testing.T) {
	_, s := windowWarehouse(t, 1000)
	s.MustExec(`CREATE RESOURCE PLAN wguard`)
	s.MustExec(`CREATE POOL wguard.work WITH alloc_fraction=1.0, query_parallelism=4`)
	s.MustExec(`CREATE RULE wchoke IN wguard WHEN spilled_bytes > 1 THEN KILL`)
	s.MustExec(`ADD RULE wchoke TO work`)
	s.MustExec(`ALTER PLAN wguard SET DEFAULT POOL = work`)
	s.MustExec(`ALTER RESOURCE PLAN wguard ENABLE ACTIVATE`)
	s.SetConf("hive.query.max.memory", "16384")
	s.SetConf("hive.parallelism", "1")
	_, err := s.Exec(`SELECT g, k, SUM(v) OVER (PARTITION BY g ORDER BY k) FROM w`)
	if err == nil || !strings.Contains(err.Error(), "killed by workload manager") {
		t.Fatalf("expected spilled_bytes KILL trigger on window spill, got %v", err)
	}
	if s.inner.LastSpilledBytes == 0 {
		t.Fatal("trigger fired without spilled bytes")
	}
}

// runWindowSpillTrial builds a random table and compares budgeted against
// unbudgeted window output byte for byte — the property the external pass
// guarantees (arrival order, peer frames, tie-breaks all preserved).
func runWindowSpillTrial(t *testing.T, rng *rand.Rand) {
	t.Helper()
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	s.MustExec(`CREATE TABLE r (g INT, k INT, v BIGINT)`)
	rows := 200 + rng.Intn(400)
	var b strings.Builder
	b.WriteString("INSERT INTO r VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		if rng.Intn(13) == 0 {
			fmt.Fprintf(&b, "(%d, NULL, %d)", rng.Intn(5), rng.Intn(1000))
		} else {
			fmt.Fprintf(&b, "(%d, %d, %d)", rng.Intn(5), rng.Intn(7), rng.Intn(1000))
		}
	}
	s.MustExec(b.String())
	s.SetConf("hive.query.results.cache.enabled", "false")
	s.SetConf("hive.parallelism", "1")
	q := `SELECT g, k, v, SUM(v) OVER (PARTITION BY g ORDER BY k), COUNT(*) OVER (PARTITION BY g ORDER BY k),
	             rank() OVER (PARTITION BY g ORDER BY k DESC), row_number() OVER (ORDER BY k)
	        FROM r`
	s.SetConf("hive.query.max.memory", "0")
	base, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	// Between an eighth and a quarter of the resident peak, of which the
	// window's input store is the largest part: every trial spills, however
	// many bytes a stored row costs.
	peak := int(s.inner.LastPeakMemoryBytes)
	budget := peak/8 + rng.Intn(peak/8)
	s.SetConf("hive.query.max.memory", fmt.Sprint(budget))
	res, err := s.Exec(q)
	if err != nil {
		t.Fatalf("budget=%d: %v", budget, err)
	}
	if s.inner.LastSpilledBytes == 0 {
		t.Fatalf("budget=%d of a %d-byte resident peak over %d rows did not spill", budget, peak, rows)
	}
	if res.String() != base.String() {
		t.Fatalf("budget=%d rows=%d: budgeted window output diverges", budget, rows)
	}
}

// TestWindowSpillProperty is the fixed-seed budgeted-vs-unbudgeted
// equivalence property; `go test -tags stress` runs the seed-randomized
// twin.
func TestWindowSpillProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		runWindowSpillTrial(t, rng)
	}
}

// TestWindowCancelMidQuery kills a million-row window query by
// hive.query.timeout a third of the way through its run time — past the
// join, inside the window's sort or partition evaluation, which used to run
// to completion before anything looked at the deadline. Wherever the deadline
// lands the query must fail with a cancellation well before it would have
// finished and leave nothing behind: no admission slot, no pool memory, no
// scratch file. (The exec-level twin, TestCancelInsideBlockingPhase, cancels
// at exactly the drain/compute boundary.)
func TestWindowCancelMidQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: loads 3 600 rows and runs a million-row window twice")
	}
	wh, s := hammerWarehouse(t, 3600, 256<<20)
	for _, stmt := range []string{
		`CREATE RESOURCE PLAN wc`,
		`CREATE POOL wc.work WITH alloc_fraction=1.0, query_parallelism=2, memory_fraction=1.0`,
		`ALTER PLAN wc SET DEFAULT POOL = work`,
		`ALTER RESOURCE PLAN wc ENABLE ACTIVATE`,
	} {
		s.MustExec(stmt)
	}
	s.SetConf("hive.parallelism", "1")
	// 13 groups of 277 rows joined with themselves: ~1M rows into the window.
	q := `SELECT COUNT(*), MAX(w) FROM (
	        SELECT SUM(b.k) OVER (PARTITION BY a.grp ORDER BY b.k, a.k) AS w
	          FROM facts a, facts b WHERE a.grp = b.grp) x`
	start := time.Now()
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if n := res.Rows[0][0].I; n < 900000 {
		t.Fatalf("window saw %d rows, want about a million", n)
	}

	s.SetConf("hive.query.timeout", fmt.Sprint(full.Milliseconds()/3))
	start = time.Now()
	_, err = s.Query(q)
	took := time.Since(start)
	if err == nil || !(strings.Contains(err.Error(), "canceled") || strings.Contains(err.Error(), "deadline")) {
		t.Fatalf("query under a deadline of a third of its %v run time returned %v; want a cancellation error", full, err)
	}
	t.Logf("full run %v; under a %dms deadline the query returned after %v", full, full.Milliseconds()/3, took)
	if took > full*5/6 {
		t.Errorf("canceled query returned after %v of a %v run: the blocking phase did not notice the deadline", took, full)
	}
	mgr := wh.Server().WorkloadManager()
	if st, err := mgr.Stats("work"); err != nil {
		t.Fatal(err)
	} else if st.Running != 0 || st.Queued != 0 || st.ExecInUse != 0 || st.MemInUse != 0 {
		t.Errorf("canceled query leaked admission state: %+v", st)
	}
	if leaks := scratchLeaks(t, wh); len(leaks) != 0 {
		t.Errorf("canceled query leaked scratch files: %v", leaks)
	}
	if err := mgr.Reconcile(); err != nil {
		t.Error(err)
	}
}
