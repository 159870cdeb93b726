package hive

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// spillWarehouse builds a small unpartitioned fact table whose working set
// dwarfs the tiny budgets the tests set — fast enough for -short and
// -race, big enough that sorts, aggregations and join builds all overflow.
func spillWarehouse(t *testing.T, rows int) (*Warehouse, *Session) {
	t.Helper()
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() })
	s := wh.Session()
	s.MustExec(`CREATE TABLE facts (k BIGINT, grp INT, v STRING, price DECIMAL(7,2))`)
	s.MustExec(`CREATE TABLE dims (grp INT, name STRING)`)
	for batch := 0; batch < rows/100; batch++ {
		var b strings.Builder
		b.WriteString("INSERT INTO facts VALUES ")
		for i := 0; i < 100; i++ {
			k := batch*100 + i
			if i > 0 {
				b.WriteString(", ")
			}
			// Non-monotonic keys with heavy ties exercise sort stability.
			fmt.Fprintf(&b, "(%d, %d, 'val%d', %d.%02d)", (k*7919)%rows, k%13, k%37, k%90, k%100)
		}
		s.MustExec(b.String())
	}
	ins := "INSERT INTO dims VALUES "
	for g := 0; g < 13; g++ {
		if g > 0 {
			ins += ", "
		}
		ins += fmt.Sprintf("(%d, 'group-%d')", g, g)
	}
	s.MustExec(ins)
	s.SetConf("hive.query.results.cache.enabled", "false")
	return wh, s
}

// scratchLeaks lists files left under the warehouse scratch root.
func scratchLeaks(t *testing.T, wh *Warehouse) []string {
	t.Helper()
	fs := wh.Server().FS
	if !fs.Exists("/warehouse/_scratch") {
		return nil
	}
	infos, err := fs.ListRecursive("/warehouse/_scratch")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, fi := range infos {
		out = append(out, fi.Path)
	}
	return out
}

// TestBeyondMemoryEndToEnd is the PR 4 acceptance regression: with
// hive.query.max.memory set far below the working set, ORDER BY, GROUP BY
// and hash-join queries must complete with results identical to the
// unbudgeted run — byte-identical output order for ORDER BY — at DOP 1 and
// DOP 4, must actually spill (nonzero Session spilled-bytes accounting),
// and must leave no scratch files behind.
func TestBeyondMemoryEndToEnd(t *testing.T) {
	wh, s := spillWarehouse(t, 800)
	queries := []struct {
		sql       string
		ordered   bool // output order must match, not just the multiset
		mustSpill bool // working set provably exceeds the 16K budget
	}{
		{`SELECT k, v, price FROM facts ORDER BY k, v, price`, true, true},
		// High-cardinality grouping (one group per key) overflows the
		// budget; the 13-group variant further down must not.
		{`SELECT k, COUNT(*), SUM(price), AVG(grp) FROM facts GROUP BY k ORDER BY k`, true, true},
		{`SELECT grp, COUNT(*), SUM(price), AVG(k) FROM facts GROUP BY grp ORDER BY grp`, true, false},
		{`SELECT COUNT(DISTINCT k), COUNT(DISTINCT grp) FROM facts`, true, true},
		// Self equi-join: both sides are the fact table, so the hash build
		// cannot fit the budget and must Grace-partition.
		{`SELECT a.k, b.grp, b.v FROM facts a, facts b WHERE a.k = b.k`, false, true},
		// Small build side (13 dims rows): fits the budget by design — the
		// governor must NOT force a spill that isn't needed.
		{`SELECT name, COUNT(*), SUM(price) FROM facts, dims WHERE facts.grp = dims.grp
		    GROUP BY name ORDER BY name`, true, false},
		{`SELECT k, name FROM facts LEFT JOIN dims ON facts.grp = dims.grp AND dims.grp < 5`, false, false},
	}
	for _, q := range queries {
		s.SetConf("hive.query.max.memory", "0")
		s.SetConf("hive.parallelism", "1")
		base, err := s.Exec(q.sql)
		if err != nil {
			t.Fatalf("unbudgeted %s: %v", q.sql, err)
		}
		if got := s.inner.LastSpilledBytes; got != 0 {
			t.Fatalf("unbudgeted run spilled %d bytes: %s", got, q.sql)
		}
		for _, dop := range []string{"1", "4"} {
			s.SetConf("hive.parallelism", dop)
			s.SetConf("hive.query.max.memory", "16384")
			res, err := s.Exec(q.sql)
			if err != nil {
				t.Fatalf("dop=%s budget=16K %s: %v", dop, q.sql, err)
			}
			if q.mustSpill && s.inner.LastSpilledBytes == 0 {
				t.Errorf("dop=%s %s: 16K budget over ~800 rows did not spill", dop, q.sql)
			}
			if s.inner.LastPeakMemoryBytes == 0 {
				t.Errorf("dop=%s %s: no peak memory accounted", dop, q.sql)
			}
			if q.ordered && dop == "1" {
				// Serial budgeted output must be byte-identical, ties
				// included (stable external sort).
				if res.String() != base.String() {
					t.Errorf("dop=1 %s: budgeted output diverges byte-wise", q.sql)
				}
			}
			if got, want := sortedLines(res), sortedLines(base); got != want {
				t.Errorf("dop=%s %s: budgeted results diverge\n got %.200q\nwant %.200q", dop, q.sql, got, want)
			}
			if q.ordered {
				// Key order must hold even when tie order across runs may
				// not (parallel run assignment is dynamic).
				if len(res.Rows) != len(base.Rows) {
					t.Errorf("dop=%s %s: row count %d vs %d", dop, q.sql, len(res.Rows), len(base.Rows))
				}
			}
			if leaks := scratchLeaks(t, wh); len(leaks) != 0 {
				t.Fatalf("dop=%s %s: leaked scratch files: %v", dop, q.sql, leaks)
			}
		}
	}
}

// TestSpillParallelRace forces spilling at a tiny budget in the middle of
// parallel queries — worker clones growing, denying and spilling against
// one shared governor — and runs two sessions concurrently so scratch
// paths and executor slots interleave. The assertions are in the -race
// detector and the result comparison.
func TestSpillParallelRace(t *testing.T) {
	wh, s := spillWarehouse(t, 500)
	s.SetConf("hive.parallelism", "1")
	q := `SELECT k, grp, v FROM facts ORDER BY k, grp, v`
	agg := `SELECT grp, COUNT(*), SUM(price) FROM facts GROUP BY grp ORDER BY grp`
	base, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	aggBase, err := s.Exec(agg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := wh.Session()
			ses.SetConf("hive.query.results.cache.enabled", "false")
			ses.SetConf("hive.parallelism", "8")
			ses.SetConf("hive.query.max.memory", "8192")
			for i := 0; i < 3; i++ {
				res, err := ses.Exec(q)
				if err != nil {
					t.Errorf("parallel budgeted sort: %v", err)
					return
				}
				if sortedLines(res) != sortedLines(base) {
					t.Error("parallel budgeted sort diverged")
					return
				}
				// The whole-table sort cannot fit 8K; the 13-group agg
				// that follows legitimately can and is only here to keep
				// spilling and non-spilling queries interleaving.
				if ses.inner.LastSpilledBytes == 0 {
					t.Error("budgeted parallel sort did not spill")
					return
				}
				ares, err := ses.Exec(agg)
				if err != nil {
					t.Errorf("parallel budgeted agg: %v", err)
					return
				}
				if ares.String() != aggBase.String() {
					t.Error("parallel budgeted agg diverged")
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

// TestScratchCleanupOnQueryError kills a query mid-flight via a workload
// trigger after it has spilled and checks the scratch directory is swept.
func TestScratchCleanupOnQueryError(t *testing.T) {
	wh, s := spillWarehouse(t, 500)
	s.MustExec(`CREATE RESOURCE PLAN guard`)
	s.MustExec(`CREATE POOL guard.work WITH alloc_fraction=1.0, query_parallelism=4`)
	s.MustExec(`CREATE RULE choke IN guard WHEN spilled_bytes > 1 THEN KILL`)
	s.MustExec(`ADD RULE choke TO work`)
	s.MustExec(`ALTER PLAN guard SET DEFAULT POOL = work`)
	s.MustExec(`ALTER RESOURCE PLAN guard ENABLE ACTIVATE`)
	s.SetConf("hive.query.max.memory", "8192")
	s.SetConf("hive.parallelism", "4")
	_, err := s.Exec(`SELECT k, v FROM facts ORDER BY k, v`)
	if err == nil || !strings.Contains(err.Error(), "killed by workload manager") {
		t.Fatalf("expected spilled_bytes KILL trigger, got %v", err)
	}
	if s.inner.LastSpilledBytes == 0 {
		t.Fatal("trigger fired without spilled bytes")
	}
	if leaks := scratchLeaks(t, wh); len(leaks) != 0 {
		t.Fatalf("leaked scratch files after killed query: %v", leaks)
	}
}

// TestLimitOffsetEndToEnd covers the OFFSET pushdown at several DOPs: the
// (offset+limit) heap runs per worker and the coordinator skips the offset
// exactly once. Results must equal the serial full-sort prefix, including
// OFFSET past end of result.
func TestLimitOffsetEndToEnd(t *testing.T) {
	_, s := spillWarehouse(t, 500)
	s.SetConf("hive.parallelism", "1")
	full, err := s.Exec(`SELECT k, grp FROM facts ORDER BY k, grp, v`)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(full.String(), "\n")
	slice := func(off, n int) string {
		if off >= len(lines) {
			return ""
		}
		end := off + n
		if end > len(lines) {
			end = len(lines)
		}
		return strings.Join(lines[off:end], "\n")
	}
	cases := []struct{ limit, offset int }{
		{10, 0}, {10, 5}, {7, 493}, {10, 496}, {10, 500}, {10, 1000}, {0, 3},
	}
	for _, dop := range []string{"1", "2", "4"} {
		s.SetConf("hive.parallelism", dop)
		for _, c := range cases {
			q := fmt.Sprintf(`SELECT k, grp FROM facts ORDER BY k, grp, v LIMIT %d OFFSET %d`, c.limit, c.offset)
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("dop=%s %s: %v", dop, q, err)
			}
			want := slice(c.offset, c.limit)
			if c.limit == 0 {
				want = ""
			}
			if res.String() != want {
				t.Errorf("dop=%s %s:\n got %q\nwant %q", dop, q, res.String(), want)
			}
		}
	}
}

// TestTopNHeapIsGoverned pins the accounting of ORDER BY + LIMIT: the heap
// holds LIMIT boxed rows whatever the budget, and before it reserved them
// it was the one blocking operator the governor could not see — a LIMIT
// 50000 over a million-row join reported the peak of the 3 600-row join
// build alone. The peak must cover the heap, serial and per-worker, and the
// reservation must be gone when the query ends.
func TestTopNHeapIsGoverned(t *testing.T) {
	wh, s := hammerWarehouse(t, 3600, 64<<20)
	for _, stmt := range []string{
		`CREATE RESOURCE PLAN tn`,
		`CREATE POOL tn.work WITH alloc_fraction=1.0, query_parallelism=2, memory_fraction=1.0`,
		`ALTER PLAN tn SET DEFAULT POOL = work`,
		`ALTER RESOURCE PLAN tn ENABLE ACTIVATE`,
	} {
		s.MustExec(stmt)
	}
	const limit = 50000
	// A kept row is two BIGINTs: the slice header plus two 48-byte datums.
	const heapBytes = limit * (24 + 2*48)
	for _, dop := range []string{"1", "2"} {
		s.SetConf("hive.parallelism", dop)
		res, err := s.Query(fmt.Sprintf(`SELECT a.k, b.k FROM facts a, facts b WHERE a.grp = b.grp ORDER BY a.k, b.k LIMIT %d`, limit))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != limit {
			t.Fatalf("dop=%s: %d rows, want %d", dop, len(res.Rows), limit)
		}
		if peak := s.inner.LastPeakMemoryBytes; peak < heapBytes {
			t.Errorf("dop=%s: peak %d bytes does not cover the %d-row heap (%d bytes)", dop, peak, limit, heapBytes)
		}
	}
	if err := wh.Server().WorkloadManager().Reconcile(); err != nil {
		t.Error(err)
	}
}
