package hive

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§7), plus ablations for the design choices DESIGN.md calls
// out. Run everything with:
//
//	go test -bench=. -benchmem
//
// or print the paper-style rows/series with cmd/hive-bench.

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/bench"
)

// runner adapts a Session to the bench.Runner interface.
type runner struct{ s *Session }

func (r runner) Exec(q string) error { _, err := r.s.Exec(q); return err }
func (r runner) SetConf(k, v string) { r.s.SetConf(k, v) }

func newTPCDSWarehouse(b *testing.B, sc bench.TPCDSScale) (*Warehouse, *Session) {
	b.Helper()
	wh, err := Open(Config{DiskLatency: true})
	if err != nil {
		b.Fatal(err)
	}
	s := wh.Session()
	if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, sc); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { wh.Close() })
	return wh, s
}

func newSSBWarehouse(b *testing.B, sc bench.SSBScale) (*Warehouse, *Session) {
	b.Helper()
	wh, err := Open(Config{DiskLatency: true})
	if err != nil {
		b.Fatal(err)
	}
	s := wh.Session()
	if err := bench.SetupSSB(func(q string) error { _, err := s.Exec(q); return err }, sc); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { wh.Close() })
	return wh, s
}

// BenchmarkFigure7 reruns the paper's Hive 1.2 vs 3.1 comparison (Figure 7)
// and prints the per-query series.
func BenchmarkFigure7(b *testing.B) {
	_, s := newTPCDSWarehouse(b, bench.SmallTPCDS())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timings, err := bench.Figure7(runner{s}, bench.TPCDSQueries(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			bench.PrintFigure7(os.Stdout, timings)
			b.StartTimer()
		}
	}
}

// BenchmarkTable1 reruns Table 1: aggregate response time with LLAP
// enabled vs plain containers.
func BenchmarkTable1(b *testing.B) {
	_, s := newTPCDSWarehouse(b, bench.SmallTPCDS())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.Table1(runner{s}, bench.TPCDSQueries(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			bench.PrintTable1(os.Stdout, res)
			b.StartTimer()
		}
	}
}

// BenchmarkFigure8 reruns the SSB federation experiment: the denormalized
// materialized view stored natively vs in Druid (queried over HTTP/JSON).
func BenchmarkFigure8(b *testing.B) {
	_, s := newSSBWarehouse(b, bench.SmallSSB())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timings, err := bench.RunFigure8(runner{s}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			bench.PrintFigure8(os.Stdout, timings)
			b.StartTimer()
		}
	}
}

// BenchmarkParallelSpeedup measures morsel-driven intra-query parallelism
// (hive.parallelism) on scan/agg- and join-heavy queries over the
// day-partitioned TPC-DS fact table. The LLAP data cache is disabled so
// every iteration pays the simulated storage latency — the cold-scan cost
// that parallel workers overlap, as LLAP executor slots do in the paper's
// Table 1. Executors are oversized so the pool never caps the DOP.
func BenchmarkParallelSpeedup(b *testing.B) {
	queries := []struct {
		name, sql string
		flat      bool // needs the unpartitioned store_sales_flat copy
	}{
		{name: "scan_agg", sql: `SELECT ss_sold_date_sk, COUNT(*), SUM(ss_sales_price), AVG(ss_quantity)
			FROM store_sales GROUP BY ss_sold_date_sk`},
		{name: "join_agg", sql: `SELECT i_category, SUM(ss_sales_price), COUNT(*)
			FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY i_category`},
		// Unpartitioned fact table: a single directory split that only
		// stripe-granular morsels (PR 2) can fan out across workers.
		{name: "unpart_scan_agg", flat: true, sql: `SELECT ss_sold_date_sk, COUNT(*), SUM(ss_sales_price), AVG(ss_quantity)
			FROM store_sales_flat GROUP BY ss_sold_date_sk`},
		// ORDER BY over the whole fact table: per-worker sorted runs
		// streamed through the loser-tree merge exchange (PR 3). Before
		// the parallel sort, the coordinator re-serialized every row.
		{name: "order_by", sql: bench.OrderBySQL},
		// ORDER BY + LIMIT: per-worker bounded heaps with the limit
		// pushed into each run (PR 3).
		{name: "sort_topn", sql: bench.SortTopNSQL},
	}
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	for _, q := range queries {
		for _, dop := range dops {
			b.Run(fmt.Sprintf("%s/dop=%d", q.name, dop), func(b *testing.B) {
				wh, err := Open(Config{DiskLatency: true, Executors: 4 * runtime.NumCPU()})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { wh.Close() })
				s := wh.Session()
				if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, bench.SmallTPCDS()); err != nil {
					b.Fatal(err)
				}
				if q.flat {
					if err := bench.SetupUnpartitionedSales(func(q string) error { _, err := s.Exec(q); return err }, bench.SmallTPCDS()); err != nil {
						b.Fatal(err)
					}
				}
				s.SetConf("hive.query.results.cache.enabled", "false")
				s.SetConf("hive.llap.enabled", "false")
				s.SetConf("hive.parallelism", fmt.Sprint(dop))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Exec(q.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBeyondMemory runs sort and aggregation over inputs much larger
// than a deliberately tiny hive.query.max.memory, so every iteration
// exercises the spill paths of PR 4 end to end: external sorted runs
// merged through the loser tree, and hash-partitioned aggregate partials
// re-aggregated partition at a time. The unlimited variants of the same
// queries are the no-spill baselines the budgeted runs are compared
// against. The measured numbers are `go run ./benchmark -workload
// spill_budget`.
func BenchmarkBeyondMemory(b *testing.B) {
	cases := []struct {
		name, sql string
	}{
		// Whole-fact-table ORDER BY: ~20000 rows materialize in the sort.
		{name: "sort", sql: bench.OrderBySQL},
		// High-cardinality GROUP BY: one group per ticket.
		{name: "agg", sql: `SELECT ss_ticket_number, COUNT(*), SUM(ss_sales_price)
			FROM store_sales GROUP BY ss_ticket_number`},
	}
	budgets := []struct {
		name, value string
	}{
		{"unlimited", "0"},
		// Far below the working set (~2-4 MB materialized rows): forces
		// many spilled runs / partial flushes per query.
		{"budget256k", "262144"},
	}
	for _, c := range cases {
		for _, bud := range budgets {
			b.Run(fmt.Sprintf("%s/%s", c.name, bud.name), func(b *testing.B) {
				wh, err := Open(Config{DiskLatency: true})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { wh.Close() })
				s := wh.Session()
				if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, bench.SmallTPCDS()); err != nil {
					b.Fatal(err)
				}
				s.SetConf("hive.query.results.cache.enabled", "false")
				s.SetConf("hive.parallelism", "4")
				s.SetConf("hive.query.max.memory", bud.value)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Exec(c.sql); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if bud.value != "0" && s.inner.LastSpilledBytes == 0 {
					b.Fatal("budgeted beyond_memory case did not spill")
				}
			})
		}
	}
}

// q88-style query whose branches compute the same join subexpression with
// different aggregates on top: the shared work optimizer's showcase
// (paper §4.5, §7.1 reports 2.7x on q88). The common filtered join is
// evaluated once and spooled to all three consumers.
const sharedWorkQuery = `SELECT a.cnt, b.total, c.mx FROM
	(SELECT COUNT(*) AS cnt   FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 1 AND 6) a,
	(SELECT SUM(ss_sales_price) AS total FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 1 AND 6) b,
	(SELECT MAX(ss_list_price)  AS mx    FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 1 AND 6) c`

// BenchmarkAblationSharedWork measures the shared work optimizer on a
// query with repeated subexpressions (§4.5).
func BenchmarkAblationSharedWork(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			_, s := newTPCDSWarehouse(b, bench.SmallTPCDS())
			s.SetConf("hive.query.results.cache.enabled", "false")
			s.SetConf("hive.optimize.sharedwork", fmt.Sprint(on))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(sharedWorkQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSemijoin measures dynamic semijoin reduction (§4.6) on
// a star join with a selective dimension filter.
func BenchmarkAblationSemijoin(b *testing.B) {
	const q = `SELECT ss_customer_sk, SUM(ss_sales_price) AS sum_sales
		FROM store_sales, item
		WHERE ss_item_sk = i_item_sk AND i_category = 'Music' AND i_brand = 'brandA'
		GROUP BY ss_customer_sk ORDER BY sum_sales DESC LIMIT 10`
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			_, s := newTPCDSWarehouse(b, bench.SmallTPCDS())
			s.SetConf("hive.query.results.cache.enabled", "false")
			s.SetConf("hive.optimize.semijoin", fmt.Sprint(on))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationResultCache measures the query results cache (§4.3):
// identical repeated queries served from cache vs recomputed.
func BenchmarkAblationResultCache(b *testing.B) {
	const q = `SELECT i_category, SUM(ss_sales_price) FROM store_sales, item
		WHERE ss_item_sk = i_item_sk GROUP BY i_category`
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "hit"
		}
		b.Run(name, func(b *testing.B) {
			_, s := newTPCDSWarehouse(b, bench.SmallTPCDS())
			s.SetConf("hive.query.results.cache.enabled", fmt.Sprint(on))
			if _, err := s.Exec(q); err != nil { // warm / fill
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLLAPCache isolates the LLAP data cache (§5.1): cold
// cache vs warm cache scans.
func BenchmarkAblationLLAPCache(b *testing.B) {
	const q = `SELECT SUM(ss_sales_price) FROM store_sales`
	b.Run("warm", func(b *testing.B) {
		wh, s := newTPCDSWarehouse(b, bench.SmallTPCDS())
		s.SetConf("hive.query.results.cache.enabled", "false")
		if _, err := s.Exec(q); err != nil {
			b.Fatal(err)
		}
		stats := wh.Server().Cache.Stats()
		if stats.Misses == 0 {
			b.Fatal("expected cache misses on first scan")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		_, s := newTPCDSWarehouse(b, bench.SmallTPCDS())
		s.SetConf("hive.query.results.cache.enabled", "false")
		s.SetConf("hive.llap.enabled", "false") // bypass the cache entirely
		if _, err := s.Exec(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMRvsContainer isolates the MapReduce-era stage
// materialization cost (§2, §5): every shuffle boundary spills to the DFS.
func BenchmarkAblationMRvsContainer(b *testing.B) {
	const q = `SELECT i_category, COUNT(*) FROM store_sales, item
		WHERE ss_item_sk = i_item_sk GROUP BY i_category ORDER BY i_category`
	for _, mode := range []string{"mr", "container", "llap"} {
		b.Run(mode, func(b *testing.B) {
			_, s := newTPCDSWarehouse(b, bench.TinyTPCDS())
			s.SetConf("hive.query.results.cache.enabled", "false")
			s.SetConf("hive.execution.mode", mode)
			if mode != "llap" {
				s.SetConf("hive.llap.enabled", "false")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMVRewrite measures materialized view rewriting (§4.4):
// the aggregate answered from the MV vs recomputed from base tables.
func BenchmarkAblationMVRewrite(b *testing.B) {
	const q = `SELECT i_category, SUM(ss_sales_price) FROM store_sales, item
		WHERE ss_item_sk = i_item_sk GROUP BY i_category`
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			_, s := newTPCDSWarehouse(b, bench.SmallTPCDS())
			s.SetConf("hive.query.results.cache.enabled", "false")
			s.MustExec(`CREATE MATERIALIZED VIEW cat_sales AS
				SELECT i_category, SUM(ss_sales_price) AS s, COUNT(*) AS c
				FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY i_category`)
			s.SetConf("hive.materializedview.rewriting", fmt.Sprint(on))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCompaction measures merge-on-read overhead (§3.2):
// scans over many small deltas vs after major compaction. The §8 claim is
// that post-redesign ACID reads are at par with compacted data.
func BenchmarkAblationCompaction(b *testing.B) {
	setup := func(b *testing.B) *Session {
		wh, err := Open(Config{DiskLatency: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { wh.Close() })
		s := wh.Session()
		s.MustExec(`CREATE TABLE frag (k BIGINT, v STRING)`)
		// Many tiny transactions -> many delta directories.
		for i := 0; i < 40; i++ {
			s.MustExec(fmt.Sprintf(`INSERT INTO frag VALUES (%d, 'v%d'), (%d, 'w%d')`, i, i, i+1000, i))
		}
		s.SetConf("hive.query.results.cache.enabled", "false")
		return s
	}
	b.Run("fragmented", func(b *testing.B) {
		s := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(`SELECT COUNT(*), MAX(k) FROM frag`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compacted", func(b *testing.B) {
		s := setup(b)
		// Major-compact by rewriting through INSERT OVERWRITE (the
		// compactor path is exercised in internal/acid benchmarks).
		rows := s.MustExec(`SELECT k, v FROM frag ORDER BY k`)
		s.MustExec(`CREATE TABLE frag2 (k BIGINT, v STRING)`)
		ins := "INSERT INTO frag2 VALUES "
		for i, r := range rows.Rows {
			if i > 0 {
				ins += ", "
			}
			ins += fmt.Sprintf("(%s, '%s')", r[0].String(), r[1].S)
		}
		s.MustExec(ins)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(`SELECT COUNT(*), MAX(k) FROM frag2`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPropertyPlanning measures the three property-planning paydays
// (PR 7) by running each shape with hive.planner.properties on and off at
// a fixed DOP — the win is work elided (sorts skipped, partition passes
// shared, exchanges and shared hash builds dropped), so it shows even on a
// single core. BenchmarkParallelSpeedup-style cases; nothing here is
// recorded — the repository's numbers come from `go run ./benchmark`.
func BenchmarkPropertyPlanning(b *testing.B) {
	// The window paydays elide string-keyed sorts, so they run over a
	// wide item dimension (string sort keys, few large partitions) with no
	// simulated storage latency — the saved work is CPU, not I/O.
	wideItems := bench.TPCDSScale{SalesRows: 1000, ReturnsRows: 100, Items: 30000, Customers: 50, Stores: 4, DateDays: 4}
	shapes := []struct {
		name, sql string
		dop       int
		mem       bool // no simulated disk latency: the payday is CPU work
		scale     bench.TPCDSScale
		conf      map[string]string
	}{
		// Payday 1: ORDER BY commutes below the window and the window's
		// own partition+order sort disappears — one string sort instead
		// of two.
		{name: "window_sorted", dop: 1, mem: true, scale: wideItems, sql: `SELECT i_item_sk, i_category, i_item_id,
			rank() OVER (PARTITION BY i_category ORDER BY i_item_id)
			FROM item ORDER BY i_category, i_item_id`},
		// Payday 2: three distinct window specs over the same PARTITION BY
		// run one shared partition pass instead of three full partition
		// sorts; the per-partition re-sorts never touch the partition key.
		{name: "window_shared", dop: 1, mem: true, scale: wideItems, sql: `SELECT i_item_sk,
			COUNT(*) OVER (PARTITION BY i_category),
			SUM(i_item_sk) OVER (PARTITION BY i_category ORDER BY i_item_id),
			rank() OVER (PARTITION BY i_category ORDER BY i_current_price DESC)
			FROM item`},
		// Payday 3: grouping on the scan's partition column keeps worker
		// partials key-disjoint — the final merge appends instead of
		// re-probing the hash table, and stripe expansion is skipped.
		{name: "partition_agg", dop: 4, scale: bench.SmallTPCDS(), sql: `SELECT ss_sold_date_sk, COUNT(*), SUM(ss_sales_price)
			FROM store_sales GROUP BY ss_sold_date_sk ORDER BY ss_sold_date_sk`},
		// Payday 3 (join form): co-partitioned join runs per-unit serial
		// builds with no shared hash table and no exchange.
		{name: "partition_join", dop: 4, scale: bench.SmallTPCDS(),
			conf: map[string]string{"hive.optimize.semijoin": "false"},
			sql: `SELECT ss_item_sk, ss_ticket_number, sr_item_sk FROM store_sales, store_returns
			WHERE ss_sold_date_sk = sr_returned_date_sk AND ss_item_sk = sr_item_sk`},
	}
	for _, sh := range shapes {
		for _, props := range []string{"on", "off"} {
			b.Run(fmt.Sprintf("%s/props=%s", sh.name, props), func(b *testing.B) {
				wh, err := Open(Config{DiskLatency: !sh.mem, Executors: 4 * runtime.NumCPU()})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { wh.Close() })
				s := wh.Session()
				if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, sh.scale); err != nil {
					b.Fatal(err)
				}
				s.SetConf("hive.query.results.cache.enabled", "false")
				s.SetConf("hive.llap.enabled", "false")
				s.SetConf("hive.parallelism", fmt.Sprint(sh.dop))
				s.SetConf("hive.planner.properties", fmt.Sprint(props == "on"))
				for k, v := range sh.conf {
					s.SetConf(k, v)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Exec(sh.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPreparedServing measures the hot serving path (PR 8): one query
// shape executed with rotating literals through three pipelines — the cold
// per-query pipeline (plan cache off), the transparent normalized plan
// cache (ad-hoc SQL, template reused across literals), and PREPARE/EXECUTE
// (no parsing or planning at all). The result cache is off in every mode
// and the literal rotates each iteration, so the delta is compilation
// elided, not rows remembered. On the EXECUTE path LastCompileNanos must
// be exactly zero; the benchmark asserts it. The serving path's measured
// numbers are `go run ./benchmark -workload serve_point`.
func BenchmarkPreparedServing(b *testing.B) {
	// Serving shape: hot data is small and the query is compile-heavy (a
	// 4-way join the optimizer must reorder), so per-query planning is a
	// large slice of latency — the regime §4.3 targets.
	scale := bench.TPCDSScale{SalesRows: 200, ReturnsRows: 20, Items: 50, Customers: 20, Stores: 4, DateDays: 4}
	const shape = `SELECT i_category, s_store_name, COUNT(*), SUM(ss_sales_price)
		FROM store_sales, item, store, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk
		  AND ss_sold_date_sk = d_date_sk AND ss_quantity > %d
		GROUP BY i_category, s_store_name ORDER BY i_category, s_store_name`
	newSession := func(b *testing.B) *Session {
		wh, err := Open(Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { wh.Close() })
		s := wh.Session()
		if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, scale); err != nil {
			b.Fatal(err)
		}
		s.SetConf("hive.query.results.cache.enabled", "false")
		s.SetConf("hive.parallelism", "1")
		return s
	}
	b.Run("adhoc_cold", func(b *testing.B) {
		s := newSession(b)
		s.SetConf("hive.query.plan.cache.enabled", "false")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(fmt.Sprintf(shape, i%50)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adhoc_plancache", func(b *testing.B) {
		s := newSession(b)
		s.MustExec(fmt.Sprintf(shape, 0)) // warm the template
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(fmt.Sprintf(shape, i%50)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared_execute", func(b *testing.B) {
		s := newSession(b)
		s.MustExec(`PREPARE serve AS ` + fmt.Sprintf(shape, 0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(fmt.Sprintf(`EXECUTE serve (%d)`, i%50)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if n := s.Internal().LastCompileNanos; n != 0 {
			b.Fatalf("EXECUTE hot path compiled: %dns", n)
		}
	})
}
