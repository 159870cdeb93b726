package hive

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/bench"
)

var updateJoinGolden = flag.Bool("update-join-golden", false, "re-record testdata/join_order.golden.json")

// joinOrderQueries are join queries without ORDER BY over the tiny TPC-DS
// data, one per join kind and probe shape, so that the hash join's own
// output order is what the result shows; the 31 TPC-DS-derived queries ride
// along (their ORDER BY ... LIMIT cuts through ties in join order).
var joinOrderQueries = map[string]string{
	"inner":       `SELECT ss_ticket_number, i_brand FROM store_sales JOIN item ON ss_item_sk = i_item_sk`,
	"inner_2keys": `SELECT ss_ticket_number, sr_return_quantity FROM store_sales JOIN store_returns ON ss_item_sk = sr_item_sk AND ss_customer_sk = sr_customer_sk`,
	"three_way":   `SELECT ss_ticket_number, i_category, s_state FROM store_sales, item, store WHERE ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk AND ss_quantity > 5`,
	"left":        `SELECT c_customer_id, sr_ticket_number FROM customer LEFT JOIN store_returns ON c_customer_sk = sr_customer_sk`,
	"left_resid":  `SELECT i_item_id, sr_return_amt FROM item LEFT JOIN store_returns ON i_item_sk = sr_item_sk AND sr_return_quantity > 2`,
	"right":       `SELECT sr_ticket_number, c_first_name FROM store_returns RIGHT JOIN customer ON c_customer_sk = sr_customer_sk`,
	"full":        `SELECT i_item_id, sr_ticket_number FROM item FULL JOIN store_returns ON i_item_sk = sr_item_sk AND sr_return_quantity > 3`,
	"semi":        `SELECT ss_ticket_number FROM store_sales WHERE ss_item_sk IN (SELECT sr_item_sk FROM store_returns WHERE sr_return_quantity > 1)`,
	"exists":      `SELECT c_customer_id FROM customer WHERE EXISTS (SELECT 1 FROM store_returns WHERE sr_customer_sk = c_customer_sk)`,
	"anti":        `SELECT ss_item_sk FROM store_sales WHERE ss_quantity > 8 AND NOT EXISTS (SELECT 1 FROM store_returns WHERE sr_item_sk = ss_item_sk)`,
	"anti_resid":  `SELECT i_item_id FROM item WHERE NOT EXISTS (SELECT 1 FROM store_returns WHERE sr_item_sk = i_item_sk AND sr_return_amt > i_current_price)`,
	"scalar":      `SELECT i_item_id, (SELECT MAX(sr_return_amt) FROM store_returns WHERE sr_item_sk = i_item_sk) FROM item`,
	"non_equi":    `SELECT s_store_name, p_promo_sk FROM store, promotion WHERE s_store_sk < p_promo_sk`,
	"self":        `SELECT a.sr_ticket_number, b.sr_ticket_number FROM store_returns a, store_returns b WHERE a.sr_item_sk = b.sr_item_sk AND a.sr_return_quantity < b.sr_return_quantity`,
}

// TestJoinOrderGolden pins the serial (hive.parallelism=1) output row order
// of every join shape to digests recorded with the row-at-a-time hash join
// this repository had before the columnar join table replaced it: chains
// walk in build-arrival order, so the rewrite may not reorder a single row.
func TestJoinOrderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping TPC-DS setup")
	}
	_, s := open(t)
	if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, bench.TinyTPCDS()); err != nil {
		t.Fatal(err)
	}
	s.SetConf("hive.query.results.cache.enabled", "false")
	s.SetConf("hive.parallelism", "1")
	queries := map[string]string{}
	for name, q := range joinOrderQueries {
		queries[name] = q
	}
	for _, q := range bench.TPCDSQueries() {
		queries["tpcds_"+q.Name] = q.SQL
	}
	got := map[string]string{}
	for name, q := range queries {
		res, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, own := joinOrderQueries[name]; own && len(res.Rows) == 0 {
			t.Errorf("%s: no rows, the query pins nothing", name)
		}
		got[name] = fmt.Sprintf("%d rows %x", len(res.Rows), sha256.Sum256([]byte(res.String())))
	}
	const path = "testdata/join_order.golden.json"
	if *updateJoinGolden {
		data, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d queries, the test runs %d; re-record on the commit that introduced the golden", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s: serial output order changed: got %s, golden %s", name, g, w)
		}
	}
}
