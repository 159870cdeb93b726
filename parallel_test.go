package hive

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestParallelismEndToEnd runs TPC-DS-shaped queries through the full
// HS2 → DAG → LLAP path at several hive.parallelism settings and checks
// the result multiset matches serial execution. This exercises morsel
// scans over the partitioned fact table, two-phase aggregation, shared
// partitioned join builds and semijoin reducers under real executor-slot
// accounting.
func TestParallelismEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping TPC-DS setup; TestUnpartitionedStripeParallelism covers the parallel paths")
	}
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, bench.TinyTPCDS()); err != nil {
		t.Fatal(err)
	}
	s.SetConf("hive.query.results.cache.enabled", "false")

	queries := []string{
		`SELECT ss_sold_date_sk, COUNT(*), SUM(ss_sales_price) FROM store_sales GROUP BY ss_sold_date_sk`,
		`SELECT i_category, SUM(ss_sales_price), AVG(ss_quantity) FROM store_sales, item
		   WHERE ss_item_sk = i_item_sk GROUP BY i_category`,
		`SELECT COUNT(DISTINCT ss_customer_sk) FROM store_sales`,
		`SELECT ss_customer_sk, SUM(ss_sales_price) AS s FROM store_sales, item
		   WHERE ss_item_sk = i_item_sk AND i_category = 'Music' AND i_brand = 'brandA'
		   GROUP BY ss_customer_sk ORDER BY s DESC LIMIT 10`,
		`SELECT ss_item_sk FROM store_sales WHERE ss_quantity > 8 AND NOT EXISTS
		   (SELECT 1 FROM store_returns WHERE sr_item_sk = ss_item_sk)`,
		`SELECT ss_ticket_number, ss_sales_price FROM store_sales ORDER BY ss_ticket_number`,
	}
	// ORDER BY queries additionally verify ordering against serial: the
	// sort-column sequence must match exactly (it is tie-permutation
	// proof — equal multisets correctly sorted render the same key
	// sequence even when tied rows interleave differently across runs).
	ordCol := map[int]int{3: 1, 5: 0}
	for qi, q := range queries {
		s.SetConf("hive.parallelism", "1")
		base, err := s.Exec(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		want := sortedLines(base)
		for _, dop := range []string{"2", "4", "8"} {
			s.SetConf("hive.parallelism", dop)
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("dop=%s %s: %v", dop, q, err)
			}
			if got := sortedLines(res); got != want {
				t.Errorf("dop=%s %s:\n got %q\nwant %q", dop, q, got, want)
			}
			if col, ok := ordCol[qi]; ok {
				if got, want := columnSeq(res, col), columnSeq(base, col); got != want {
					t.Errorf("dop=%s %s: sort-key sequence diverges from serial\n got %q\nwant %q", dop, q, got, want)
				}
			}
		}
	}
}

// columnSeq renders one output column in row order.
func columnSeq(r *Result, col int) string {
	vals := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		vals[i] = row[col].String()
	}
	return strings.Join(vals, ",")
}

func sortedLines(r *Result) string {
	lines := strings.Split(r.String(), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestUnpartitionedStripeParallelism covers the PR 2 tentpole end to end:
// an unpartitioned ACID table is a single directory split, which used to
// scan serially at any DOP. With stripe-granular morsels the LLAP path
// fans it out across executor slots, and results must stay byte-identical
// to the serial MR and container paths even while delete deltas are live.
func TestUnpartitionedStripeParallelism(t *testing.T) {
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	s.MustExec(`CREATE TABLE flat (k BIGINT, v STRING, q INT)`)
	// Multiple insert transactions -> multiple delta files to split.
	for batch := 0; batch < 8; batch++ {
		ins := "INSERT INTO flat VALUES "
		for i := 0; i < 100; i++ {
			k := batch*100 + i
			if i > 0 {
				ins += ", "
			}
			ins += fmt.Sprintf("(%d, 'v%d', %d)", k, k, k%10)
		}
		s.MustExec(ins)
	}
	// Active delete deltas over committed data.
	s.MustExec(`DELETE FROM flat WHERE q = 3`)
	s.MustExec(`DELETE FROM flat WHERE k >= 700 AND q = 5`)
	s.SetConf("hive.query.results.cache.enabled", "false")

	queries := []string{
		`SELECT k, v, q FROM flat`,
		`SELECT q, COUNT(*), SUM(k) FROM flat GROUP BY q`,
		`SELECT COUNT(*), MIN(k), MAX(k) FROM flat WHERE q <> 4`,
	}
	type variant struct {
		name string
		conf map[string]string
	}
	variants := []variant{
		{"mr", map[string]string{"hive.execution.mode": "mr", "hive.llap.enabled": "false"}},
		{"container", map[string]string{"hive.execution.mode": "container", "hive.llap.enabled": "false"}},
		{"llap_dop4", map[string]string{"hive.execution.mode": "llap", "hive.llap.enabled": "true", "hive.parallelism": "4"}},
		{"llap_dop8_target3", map[string]string{"hive.execution.mode": "llap", "hive.llap.enabled": "true", "hive.parallelism": "8", "hive.split.target.stripes": "3"}},
	}
	for _, q := range queries {
		s.SetConf("hive.execution.mode", "llap")
		s.SetConf("hive.llap.enabled", "true")
		s.SetConf("hive.parallelism", "1")
		s.SetConf("hive.split.target.stripes", "1")
		base, err := s.Exec(q)
		if err != nil {
			t.Fatalf("serial llap %s: %v", q, err)
		}
		want := sortedLines(base)
		for _, v := range variants {
			for k, val := range v.conf {
				s.SetConf(k, val)
			}
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("%s %s: %v", v.name, q, err)
			}
			if got := sortedLines(res); got != want {
				t.Errorf("%s %s: results diverge from serial\n got %q\nwant %q", v.name, q, got, want)
			}
		}
	}
}

// createOrdTable loads the six-delta ord table: several insert transactions
// -> several delta files -> stripe morsels, with NULLs interleaved through
// every run.
func createOrdTable(s *Session) {
	s.MustExec(`CREATE TABLE ord (k BIGINT, nv BIGINT, grp INT, tag STRING)`)
	for batch := 0; batch < 6; batch++ {
		ins := "INSERT INTO ord VALUES "
		for i := 0; i < 80; i++ {
			k := batch*80 + i
			if i > 0 {
				ins += ", "
			}
			nv := fmt.Sprint(k % 13)
			if k%7 == 0 {
				nv = "NULL"
			}
			ins += fmt.Sprintf("(%d, %s, %d, 't%04d')", k, nv, k%5, k)
		}
		s.MustExec(ins)
	}
}

// TestParallelOrderByMatchesSerial is the PR 3 ordering regression: ORDER
// BY and ORDER BY ... LIMIT results must be byte-identical between serial
// execution (hive.parallelism=1) and parallel runs at DOP 1/2/4/8 — in
// output order, not as a multiset — across NULL ordering, DESC keys and
// tied keys. Queries assert stable-order columns only where the sort keys
// are unique per row (tie order across dynamically assigned runs is
// legitimately nondeterministic, so the tie query projects only its key).
func TestParallelOrderByMatchesSerial(t *testing.T) {
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	createOrdTable(s)
	s.SetConf("hive.query.results.cache.enabled", "false")

	queries := []string{
		// Unique key, both directions.
		`SELECT k, tag FROM ord ORDER BY k`,
		`SELECT k, tag FROM ord ORDER BY k DESC`,
		// NULL ordering under ASC and DESC, unique tiebreak.
		`SELECT nv, k FROM ord ORDER BY nv, k`,
		`SELECT nv, k FROM ord ORDER BY nv DESC, k DESC`,
		// Ties on grp resolved by a unique column.
		`SELECT grp, k FROM ord ORDER BY grp, k DESC`,
		// Pure-tie query: only the key is projected, so equal rows render
		// identically and the ordered output is still byte-comparable.
		`SELECT grp FROM ord ORDER BY grp`,
		// TopN: limits pushed into per-worker runs.
		`SELECT k, tag FROM ord ORDER BY k DESC LIMIT 7`,
		`SELECT nv, k FROM ord ORDER BY nv, k LIMIT 9`,
		`SELECT k FROM ord ORDER BY k LIMIT 0`,
	}
	for _, q := range queries {
		s.SetConf("hive.parallelism", "1")
		base, err := s.Exec(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		want := base.String()
		for _, dop := range []string{"1", "2", "4", "8"} {
			s.SetConf("hive.parallelism", dop)
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("dop=%s %s: %v", dop, q, err)
			}
			if got := res.String(); got != want {
				t.Errorf("dop=%s %s: ordered output diverges from serial\n got %q\nwant %q", dop, q, got, want)
			}
		}
	}
}

// TestParallelismBoundedBySlots shrinks the executor pool to one slot and
// confirms parallel queries still complete (the coordinator always owns an
// implicit slot) and produce correct results.
func TestParallelismBoundedBySlots(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping TPC-DS setup")
	}
	wh, err := Open(Config{Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, bench.TinyTPCDS()); err != nil {
		t.Fatal(err)
	}
	s.SetConf("hive.query.results.cache.enabled", "false")
	s.SetConf("hive.parallelism", "8")
	res, err := s.Exec(`SELECT COUNT(*), SUM(ss_quantity) FROM store_sales`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.String(), "2000|") {
		t.Fatalf("unexpected result %q", res.String())
	}
}
