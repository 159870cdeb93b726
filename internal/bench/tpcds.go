// Package bench contains the workload generators and harnesses that
// regenerate every table and figure of the paper's evaluation (§7):
// a TPC-DS-derived workload for Figure 7 and Table 1, and the Star-Schema
// Benchmark for Figure 8. Scales are laptop-sized: the shapes are
// comparable with the paper's cluster numbers, the magnitudes are not.
package bench

import (
	"fmt"
	"math/rand"
)

// TPCDSQuery is one benchmark query with its paper-facing number.
type TPCDSQuery struct {
	Name string // e.g. "q3" — numbering follows TPC-DS themes
	SQL  string
	// V31Only marks queries using SQL that Hive 1.2 rejects (paper §7.1:
	// only 50 of 99 queries ran on v1.2).
	V31Only bool
}

// TPCDSScale controls generated data volume.
type TPCDSScale struct {
	SalesRows   int // store_sales fact rows
	ReturnsRows int
	Items       int
	Customers   int
	Stores      int
	DateDays    int // number of date partitions
}

// SmallTPCDS is the default laptop scale.
func SmallTPCDS() TPCDSScale {
	return TPCDSScale{SalesRows: 20000, ReturnsRows: 2000, Items: 400, Customers: 800, Stores: 8, DateDays: 24}
}

// TinyTPCDS keeps unit tests fast.
func TinyTPCDS() TPCDSScale {
	return TPCDSScale{SalesRows: 2000, ReturnsRows: 200, Items: 60, Customers: 100, Stores: 4, DateDays: 8}
}

// Executor abstracts a SQL session (satisfied by the public hive.Session).
type Executor interface {
	Exec(sql string) error
	MustExec(sql string)
}

// SetupTPCDS creates and populates the TPC-DS-derived schema. The fact
// table is partitioned by day, as in the paper's experiments.
func SetupTPCDS(exec func(string) error, sc TPCDSScale) error {
	ddl := []string{
		`CREATE TABLE date_dim (
			d_date_sk BIGINT, d_date DATE, d_year INT, d_moy INT, d_dom INT,
			PRIMARY KEY (d_date_sk) DISABLE NOVALIDATE RELY)`,
		`CREATE TABLE item (
			i_item_sk BIGINT, i_item_id STRING, i_category STRING, i_brand STRING,
			i_current_price DECIMAL(7,2),
			PRIMARY KEY (i_item_sk) DISABLE NOVALIDATE RELY)`,
		`CREATE TABLE customer (
			c_customer_sk BIGINT, c_customer_id STRING, c_first_name STRING,
			c_birth_year INT, c_preferred STRING)`,
		`CREATE TABLE store (
			s_store_sk BIGINT, s_store_name STRING, s_state STRING)`,
		`CREATE TABLE promotion (
			p_promo_sk BIGINT, p_channel_email STRING, p_channel_tv STRING)`,
		`CREATE TABLE store_sales (
			ss_item_sk BIGINT, ss_customer_sk BIGINT, ss_store_sk BIGINT,
			ss_promo_sk BIGINT, ss_ticket_number BIGINT, ss_quantity INT,
			ss_list_price DECIMAL(7,2), ss_sales_price DECIMAL(7,2)
		) PARTITIONED BY (ss_sold_date_sk INT)`,
		`CREATE TABLE store_returns (
			sr_item_sk BIGINT, sr_customer_sk BIGINT, sr_ticket_number BIGINT,
			sr_return_quantity INT, sr_return_amt DECIMAL(7,2)
		) PARTITIONED BY (sr_returned_date_sk INT)`,
	}
	for _, d := range ddl {
		if err := exec(d); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(42))
	categories := []string{"Sports", "Books", "Home", "Electronics", "Music", "Shoes"}
	brands := []string{"brandA", "brandB", "brandC", "brandD"}
	states := []string{"CA", "NY", "TX", "WA"}

	// Dimensions.
	if err := insertBatches(exec, "date_dim", sc.DateDays, 500, func(i int) string {
		year := 2017 + i/12
		moy := i%12 + 1
		dom := i%28 + 1
		return fmt.Sprintf("(%d, CAST('%04d-%02d-%02d' AS date), %d, %d, %d)",
			i+1, year, moy, dom, year, moy, dom)
	}); err != nil {
		return err
	}
	if err := insertBatches(exec, "item", sc.Items, 500, func(i int) string {
		return fmt.Sprintf("(%d, 'ITEM%06d', '%s', '%s', %d.%02d)",
			i+1, i+1, categories[i%len(categories)], brands[i%len(brands)],
			1+rng.Intn(99), rng.Intn(100))
	}); err != nil {
		return err
	}
	if err := insertBatches(exec, "customer", sc.Customers, 500, func(i int) string {
		pref := "N"
		if i%3 == 0 {
			pref = "Y"
		}
		return fmt.Sprintf("(%d, 'CUST%06d', 'name%d', %d, '%s')",
			i+1, i+1, i, 1950+rng.Intn(55), pref)
	}); err != nil {
		return err
	}
	if err := insertBatches(exec, "store", sc.Stores, 500, func(i int) string {
		return fmt.Sprintf("(%d, 'store%d', '%s')", i+1, i, states[i%len(states)])
	}); err != nil {
		return err
	}
	if err := insertBatches(exec, "promotion", 20, 500, func(i int) string {
		e, t := "N", "N"
		if i%2 == 0 {
			e = "Y"
		}
		if i%3 == 0 {
			t = "Y"
		}
		return fmt.Sprintf("(%d, '%s', '%s')", i+1, e, t)
	}); err != nil {
		return err
	}

	// Fact tables, partitioned by day. Zipf-ish skew on items.
	perDay := sc.SalesRows / sc.DateDays
	ticket := 0
	for day := 1; day <= sc.DateDays; day++ {
		day := day
		if err := insertPartitionBatches(exec, "store_sales", "ss_sold_date_sk", day, perDay, 500, func(i int) string {
			ticket++
			item := 1 + skewed(rng, sc.Items)
			price := 1 + rng.Intn(9999)
			return fmt.Sprintf("(%d, %d, %d, %d, %d, %d, %d.%02d, %d.%02d)",
				item, 1+rng.Intn(sc.Customers), 1+rng.Intn(sc.Stores),
				1+rng.Intn(20), ticket, 1+rng.Intn(10),
				price/100+1, price%100, price/100, price%100)
		}); err != nil {
			return err
		}
	}
	perDayRet := sc.ReturnsRows / sc.DateDays
	if perDayRet < 1 {
		perDayRet = 1
	}
	for day := 1; day <= sc.DateDays; day++ {
		if err := insertPartitionBatches(exec, "store_returns", "sr_returned_date_sk", day, perDayRet, 500, func(i int) string {
			amt := rng.Intn(5000)
			return fmt.Sprintf("(%d, %d, %d, %d, %d.%02d)",
				1+skewed(rng, sc.Items), 1+rng.Intn(sc.Customers),
				1+rng.Intn(ticket), 1+rng.Intn(3), amt/100, amt%100)
		}); err != nil {
			return err
		}
	}
	// Statistics for the cost-based optimizer.
	for _, t := range []string{"date_dim", "item", "customer", "store", "promotion", "store_sales", "store_returns"} {
		if err := exec("ANALYZE TABLE " + t + " COMPUTE STATISTICS"); err != nil {
			return err
		}
	}
	return nil
}

// SetupUnpartitionedSales copies store_sales into store_sales_flat, an
// unpartitioned table with the date key as a plain column. One insert
// transaction per day keeps the directory shaped like a real ACID table
// (many delta files), which is exactly the case stripe-granular morsels
// parallelize: the table is a single directory split, so before PR 2 it
// scanned serially at any DOP. Requires SetupTPCDS to have run.
func SetupUnpartitionedSales(exec func(string) error, sc TPCDSScale) error {
	ddl := `CREATE TABLE store_sales_flat (
		ss_item_sk BIGINT, ss_customer_sk BIGINT, ss_store_sk BIGINT,
		ss_promo_sk BIGINT, ss_ticket_number BIGINT, ss_quantity INT,
		ss_list_price DECIMAL(7,2), ss_sales_price DECIMAL(7,2),
		ss_sold_date_sk INT)`
	if err := exec(ddl); err != nil {
		return err
	}
	for day := 1; day <= sc.DateDays; day++ {
		ins := fmt.Sprintf(`INSERT INTO store_sales_flat
			SELECT ss_item_sk, ss_customer_sk, ss_store_sk, ss_promo_sk,
			       ss_ticket_number, ss_quantity, ss_list_price, ss_sales_price,
			       ss_sold_date_sk
			FROM store_sales WHERE ss_sold_date_sk = %d`, day)
		if err := exec(ins); err != nil {
			return err
		}
	}
	return exec("ANALYZE TABLE store_sales_flat COMPUTE STATISTICS")
}

// OrderBySQL and SortTopNSQL are the ORDER BY-heavy cases of
// BenchmarkParallelSpeedup (PR 3). OrderBySQL produces one globally sorted
// stream over the whole fact table — per-worker sorted runs through the
// order-preserving merge exchange. SortTopNSQL is the ORDER BY + LIMIT
// shape that per-worker bounded heaps answer with at most workers×N rows
// ever reaching the coordinator. Both sort keys end with the unique ticket
// number, so parallel output is byte-identical to serial.
const (
	OrderBySQL = `SELECT ss_ticket_number, ss_item_sk, ss_customer_sk, ss_sales_price
		FROM store_sales ORDER BY ss_sales_price DESC, ss_ticket_number`
	SortTopNSQL = `SELECT ss_ticket_number, ss_item_sk, ss_customer_sk, ss_sales_price
		FROM store_sales ORDER BY ss_sales_price DESC, ss_ticket_number LIMIT 100`
)

func skewed(rng *rand.Rand, n int) int {
	// 60% of rows hit the first 20% of keys.
	if rng.Float64() < 0.6 {
		return rng.Intn(n/5 + 1)
	}
	return rng.Intn(n)
}

func insertBatches(exec func(string) error, table string, total, batch int, row func(i int) string) error {
	for start := 0; start < total; start += batch {
		end := start + batch
		if end > total {
			end = total
		}
		sql := "INSERT INTO " + table + " VALUES "
		for i := start; i < end; i++ {
			if i > start {
				sql += ", "
			}
			sql += row(i)
		}
		if err := exec(sql); err != nil {
			return err
		}
	}
	return nil
}

func insertPartitionBatches(exec func(string) error, table, partKey string, partVal, total, batch int, row func(i int) string) error {
	for start := 0; start < total; start += batch {
		end := start + batch
		if end > total {
			end = total
		}
		sql := fmt.Sprintf("INSERT INTO %s PARTITION (%s=%d) VALUES ", table, partKey, partVal)
		for i := start; i < end; i++ {
			if i > start {
				sql += ", "
			}
			sql += row(i)
		}
		if err := exec(sql); err != nil {
			return err
		}
	}
	return nil
}

// TPCDSQueries returns the representative query set. The numbering follows
// the TPC-DS themes each query models; roughly half use SQL that Hive 1.2
// rejected, mirroring the 50-of-99 split in paper Figure 7.
func TPCDSQueries() []TPCDSQuery {
	return []TPCDSQuery{
		{Name: "q3", SQL: `SELECT d_year, i_brand, SUM(ss_sales_price) AS sum_agg
			FROM store_sales, date_dim, item
			WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND i_category = 'Books'
			GROUP BY d_year, i_brand ORDER BY d_year, sum_agg DESC LIMIT 10`},
		{Name: "q7", SQL: `SELECT i_item_id, AVG(ss_quantity) AS agg1, AVG(ss_list_price) AS agg2
			FROM store_sales, item, promotion
			WHERE ss_item_sk = i_item_sk AND ss_promo_sk = p_promo_sk
			  AND (p_channel_email = 'N' OR p_channel_tv = 'N')
			GROUP BY i_item_id ORDER BY i_item_id LIMIT 20`},
		{Name: "q12", SQL: `SELECT i_category, SUM(ss_sales_price) AS itemrevenue
			FROM store_sales, item, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND d_year = 2017
			GROUP BY i_category ORDER BY itemrevenue DESC`},
		{Name: "q15", SQL: `SELECT c_customer_id, SUM(ss_sales_price) AS total
			FROM store_sales, customer
			WHERE ss_customer_sk = c_customer_sk AND c_preferred = 'Y'
			GROUP BY c_customer_id HAVING SUM(ss_sales_price) > 50 ORDER BY total DESC LIMIT 25`},
		{Name: "q19", SQL: `SELECT i_brand, s_state, SUM(ss_sales_price) AS rev
			FROM store_sales, item, store
			WHERE ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk AND i_category = 'Electronics'
			GROUP BY i_brand, s_state ORDER BY rev DESC LIMIT 10`},
		{Name: "q25", SQL: `SELECT i_item_id, SUM(sr_return_quantity) AS returns_
			FROM store_returns, item
			WHERE sr_item_sk = i_item_sk
			GROUP BY i_item_id ORDER BY returns_ DESC LIMIT 15`},
		{Name: "q26", SQL: `SELECT i_item_id, AVG(ss_quantity) AS agg1
			FROM store_sales, item, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND d_moy = 1
			GROUP BY i_item_id ORDER BY i_item_id LIMIT 20`},
		{Name: "q28", SQL: `SELECT COUNT(DISTINCT ss_customer_sk) AS cnt, AVG(ss_list_price) AS avg_p
			FROM store_sales WHERE ss_quantity BETWEEN 1 AND 5`},
		{Name: "q42", SQL: `SELECT d_year, i_category, SUM(ss_sales_price) AS s
			FROM store_sales, date_dim, item
			WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND d_moy = 2
			GROUP BY d_year, i_category ORDER BY s DESC LIMIT 10`},
		{Name: "q43", SQL: `SELECT s_store_name, SUM(ss_sales_price) AS rev
			FROM store_sales, store
			WHERE ss_store_sk = s_store_sk
			GROUP BY s_store_name ORDER BY rev DESC`},
		{Name: "q52", SQL: `SELECT d_year, i_brand, SUM(ss_sales_price) AS ext_price
			FROM store_sales, date_dim, item
			WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND d_moy = 11
			GROUP BY d_year, i_brand ORDER BY d_year, ext_price DESC LIMIT 10`},
		{Name: "q55", SQL: `SELECT i_brand, SUM(ss_sales_price) AS ext_price
			FROM store_sales, item, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND d_moy = 12
			GROUP BY i_brand ORDER BY ext_price DESC LIMIT 10`},
		{Name: "q61", SQL: `SELECT promotions.cnt, total.cnt
			FROM (SELECT COUNT(*) AS cnt FROM store_sales, promotion
			      WHERE ss_promo_sk = p_promo_sk AND p_channel_email = 'Y') promotions,
			     (SELECT COUNT(*) AS cnt FROM store_sales) total`},
		{Name: "q65", SQL: `SELECT s_store_name, i_item_id, sales.total
			FROM store, item,
			  (SELECT ss_store_sk AS sk, ss_item_sk AS ik, SUM(ss_sales_price) AS total
			   FROM store_sales GROUP BY ss_store_sk, ss_item_sk) sales
			WHERE s_store_sk = sales.sk AND i_item_sk = sales.ik
			ORDER BY total DESC LIMIT 10`},
		{Name: "q68", SQL: `SELECT c_customer_id, SUM(ss_sales_price) AS amt
			FROM store_sales, customer, date_dim
			WHERE ss_customer_sk = c_customer_sk AND ss_sold_date_sk = d_date_sk
			  AND d_dom BETWEEN 1 AND 3
			GROUP BY c_customer_id ORDER BY amt DESC LIMIT 20`},

		// The following use SQL surface Hive 1.2 lacked (paper §7.1).
		{Name: "q8", V31Only: true, SQL: `SELECT s_store_name, SUM(ss_sales_price) AS s
			FROM store_sales, store
			WHERE ss_store_sk = s_store_sk AND s_state IN ('CA','NY')
			GROUP BY s_store_name ORDER BY SUM(ss_quantity)`},
		{Name: "q10", V31Only: true, SQL: `SELECT c_customer_id FROM customer
			WHERE EXISTS (SELECT 1 FROM store_sales WHERE ss_customer_sk = c_customer_sk)
			  AND c_birth_year > 1980 ORDER BY c_customer_id LIMIT 20`},
		{Name: "q14", V31Only: true, SQL: `SELECT i_item_sk FROM store_sales JOIN item ON ss_item_sk = i_item_sk WHERE i_category = 'Music'
			INTERSECT
			SELECT i_item_sk FROM store_returns JOIN item ON sr_item_sk = i_item_sk`},
		{Name: "q16", V31Only: true, SQL: `SELECT COUNT(DISTINCT ss_ticket_number) AS cnt
			FROM store_sales
			WHERE ss_item_sk NOT IN (SELECT i_item_sk FROM item WHERE i_category = 'Shoes')`},
		{Name: "q23", V31Only: true, SQL: `SELECT i_item_sk FROM store_sales JOIN item ON ss_item_sk = i_item_sk
			EXCEPT
			SELECT sr_item_sk FROM store_returns`},
		{Name: "q32", V31Only: true, SQL: `SELECT AVG(ss_sales_price) FROM store_sales, item
			WHERE ss_item_sk = i_item_sk AND
			ss_sales_price > (SELECT AVG(i_current_price) FROM item)`},
		{Name: "q35", V31Only: true, SQL: `SELECT c_customer_id FROM customer
			WHERE c_customer_sk IN (SELECT ss_customer_sk FROM store_sales, date_dim
				WHERE ss_sold_date_sk = d_date_sk AND d_year = 2017)
			ORDER BY c_birth_year LIMIT 20`},
		{Name: "q36", V31Only: true, SQL: `SELECT i_category, i_brand, SUM(ss_sales_price) AS s,
			GROUPING(i_category) AS gc
			FROM store_sales, item WHERE ss_item_sk = i_item_sk
			GROUP BY ROLLUP(i_category, i_brand)
			ORDER BY gc, s DESC LIMIT 25`},
		{Name: "q44", V31Only: true, SQL: `SELECT i_brand, rk FROM (
			SELECT i_brand, rank() OVER (ORDER BY SUM(ss_sales_price) DESC) AS rk
			FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY i_brand) ranked
			WHERE rk <= 5 ORDER BY rk`},
		{Name: "q51", V31Only: true, SQL: `SELECT d_date, SUM(ss_sales_price) OVER (PARTITION BY d_moy ORDER BY d_dom) AS run
			FROM store_sales, date_dim
			WHERE ss_sold_date_sk = d_date_sk AND d_year = 2017
			ORDER BY d_date LIMIT 20`},
		{Name: "q54", V31Only: true, SQL: `SELECT COUNT(*) FROM store_sales, date_dim
			WHERE ss_sold_date_sk = d_date_sk
			  AND d_date BETWEEN CAST('2017-01-01' AS date) AND CAST('2017-01-01' AS date) + INTERVAL 60 DAYS`},
		{Name: "q58", V31Only: true, SQL: `SELECT i_item_id, SUM(ss_sales_price) AS total
			FROM store_sales, item, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
			  AND d_date BETWEEN CAST('2017-02-01' AS date) AND CAST('2017-02-01' AS date) + INTERVAL 30 DAYS
			GROUP BY i_item_id ORDER BY total DESC LIMIT 15`},
		{Name: "q69", V31Only: true, SQL: `SELECT c_customer_id FROM customer
			WHERE NOT EXISTS (SELECT 1 FROM store_returns WHERE sr_customer_sk = c_customer_sk)
			  AND c_preferred = 'Y' ORDER BY c_customer_id LIMIT 20`},
		{Name: "q81", V31Only: true, SQL: `SELECT c_customer_id FROM customer, store_returns
			WHERE c_customer_sk = sr_customer_sk AND sr_return_amt >
			  (SELECT AVG(sr_return_amt) FROM store_returns)
			ORDER BY c_customer_id LIMIT 20`},
		{Name: "q88", V31Only: true, SQL: `SELECT a.cnt, b.cnt, c.cnt, d.cnt FROM
			(SELECT COUNT(*) AS cnt FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 1 AND 3) a,
			(SELECT COUNT(*) AS cnt FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 4 AND 6) b,
			(SELECT COUNT(*) AS cnt FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 7 AND 8) c,
			(SELECT COUNT(*) AS cnt FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 9 AND 10) d`},
		{Name: "q97", V31Only: true, SQL: `SELECT COUNT(*) FROM
			(SELECT ss_customer_sk AS sk FROM store_sales
			 INTERSECT SELECT sr_customer_sk AS sk FROM store_returns) both_channels`},
	}
}
