package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Scale fixes the generated data volume. Row counts are per table; the
// fact tables are split evenly over Days partitions and loaded in INSERT
// statements of Batch rows, so a partition holds SalesRows/Days/Batch
// delta directories until something compacts it.
type Scale struct {
	Name        string
	SalesRows   int
	ReturnsRows int
	Items       int
	Customers   int
	Stores      int
	Days        int
	Batch       int
}

// The three scales. full is the analytic scale (≈20 MB decoded, so it fits
// the default 64 MiB chunk cache and is 4×/40× the scan_cold caches); hot is
// the serving scale; smoke keeps `go test` under ten seconds.
var (
	scaleFull  = Scale{Name: "full", SalesRows: 200000, ReturnsRows: 20000, Items: 2000, Customers: 8000, Stores: 12, Days: 24, Batch: 500}
	scaleHot   = Scale{Name: "hot", SalesRows: 24000, ReturnsRows: 2400, Items: 400, Customers: 800, Stores: 8, Days: 24, Batch: 500}
	scaleSmoke = Scale{Name: "smoke", SalesRows: 2000, ReturnsRows: 200, Items: 60, Customers: 100, Stores: 4, Days: 8, Batch: 125}
)

const promotions = 20

var (
	categories = []string{"Sports", "Books", "Home", "Electronics", "Music", "Shoes"}
	brands     = []string{"brandA", "brandB", "brandC", "brandD"}
	states     = []string{"CA", "NY", "TX", "WA"}
)

// Customer is the generator's copy of one customer row; serve_point checks
// primary-key lookups against it.
type Customer struct {
	ID        string
	BirthYear int
	Preferred string
}

// Dataset is one generated warehouse: the load script and everything the
// generator knows about the rows it emitted, which is what results are
// checked against.
type Dataset struct {
	Scale Scale
	Seed  int64

	DDL     []string // CREATE TABLE statements
	Inserts []string // INSERT … VALUES statements, dimension tables first
	Analyze []string // ANALYZE TABLE statements

	// InsertRows[i] is the number of rows Inserts[i] carries.
	InsertRows []int

	SalesRows  int64   // COUNT(*) of store_sales
	SalesCents int64   // SUM(ss_sales_price) in cents
	PartRows   []int64 // rows per ss_sold_date_sk, index day-1
	PartCents  []int64 // SUM(ss_sales_price) per day, in cents
	MaxTicket  int64   // ticket numbers are 1..MaxTicket, one per fact row

	Customers     []Customer // index c_customer_sk-1
	CategoryItems []int64    // items per category, index into categories
	CategoryCents []int64    // SUM(i_current_price) per category, in cents

	// acid is acid_mixed's model of its table; nil for the TPC-DS data.
	acid *acidModel
}

// LiveRows is the number of rows the warehouse holds now: everything loaded,
// or for acid_mixed what the model says survives plus the staged changes.
func (d *Dataset) LiveRows() int64 {
	if d.acid != nil {
		return int64(len(d.acid.live) + d.acid.staged)
	}
	return d.TotalRows()
}

// TotalRows is every row the script loads, over all tables.
func (d *Dataset) TotalRows() int64 {
	var n int64
	for _, r := range d.InsertRows {
		n += int64(r)
	}
	return n
}

// Script is the whole load in execution order.
func (d *Dataset) Script() []string {
	out := make([]string, 0, len(d.DDL)+len(d.Inserts)+len(d.Analyze))
	out = append(out, d.DDL...)
	out = append(out, d.Inserts...)
	return append(out, d.Analyze...)
}

var tpcdsDDL = []string{
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

var tpcdsTables = []string{"date_dim", "item", "customer", "store", "promotion", "store_sales", "store_returns"}

// Generate builds the TPC-DS-derived dataset for one scale and seed. The
// same (scale, seed) always yields a byte-identical script.
func Generate(sc Scale, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Scale:         sc,
		Seed:          seed,
		DDL:           tpcdsDDL,
		PartRows:      make([]int64, sc.Days),
		PartCents:     make([]int64, sc.Days),
		Customers:     make([]Customer, sc.Customers),
		CategoryItems: make([]int64, len(categories)),
		CategoryCents: make([]int64, len(categories)),
	}
	for _, t := range tpcdsTables {
		d.Analyze = append(d.Analyze, "ANALYZE TABLE "+t+" COMPUTE STATISTICS")
	}

	d.batches("INSERT INTO date_dim VALUES ", sc.Days, func(b *strings.Builder, i int) {
		year, moy, dom := 2017+i/12, i%12+1, i%28+1
		fmt.Fprintf(b, "(%d, CAST('%04d-%02d-%02d' AS date), %d, %d, %d)", i+1, year, moy, dom, year, moy, dom)
	})
	d.batches("INSERT INTO item VALUES ", sc.Items, func(b *strings.Builder, i int) {
		cat := i % len(categories)
		cents := int64(100 + rng.Intn(9900))
		d.CategoryItems[cat]++
		d.CategoryCents[cat] += cents
		fmt.Fprintf(b, "(%d, 'ITEM%06d', '%s', '%s', %s)", i+1, i+1, categories[cat], brands[i%len(brands)], money(cents))
	})
	d.batches("INSERT INTO customer VALUES ", sc.Customers, func(b *strings.Builder, i int) {
		c := Customer{ID: fmt.Sprintf("CUST%06d", i+1), BirthYear: 1950 + rng.Intn(55), Preferred: "N"}
		if i%3 == 0 {
			c.Preferred = "Y"
		}
		d.Customers[i] = c
		fmt.Fprintf(b, "(%d, '%s', 'name%d', %d, '%s')", i+1, c.ID, i, c.BirthYear, c.Preferred)
	})
	d.batches("INSERT INTO store VALUES ", sc.Stores, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "(%d, 'store%d', '%s')", i+1, i, states[i%len(states)])
	})
	d.batches("INSERT INTO promotion VALUES ", promotions, func(b *strings.Builder, i int) {
		email, tv := "N", "N"
		if i%2 == 0 {
			email = "Y"
		}
		if i%3 == 0 {
			tv = "Y"
		}
		fmt.Fprintf(b, "(%d, '%s', '%s')", i+1, email, tv)
	})

	perDay := sc.SalesRows / sc.Days
	for day := 1; day <= sc.Days; day++ {
		d.batches(fmt.Sprintf("INSERT INTO store_sales PARTITION (ss_sold_date_sk=%d) VALUES ", day), perDay, func(b *strings.Builder, _ int) {
			d.MaxTicket++
			cents := int64(1 + rng.Intn(9999))
			d.SalesRows++
			d.SalesCents += cents
			d.PartRows[day-1]++
			d.PartCents[day-1] += cents
			fmt.Fprintf(b, "(%d, %d, %d, %d, %d, %d, %s, %s)",
				1+skewed(rng, sc.Items), 1+rng.Intn(sc.Customers), 1+rng.Intn(sc.Stores),
				1+rng.Intn(promotions), d.MaxTicket, 1+rng.Intn(10), money(cents+100), money(cents))
		})
	}
	perDayRet := sc.ReturnsRows / sc.Days
	for day := 1; day <= sc.Days; day++ {
		d.batches(fmt.Sprintf("INSERT INTO store_returns PARTITION (sr_returned_date_sk=%d) VALUES ", day), perDayRet, func(b *strings.Builder, _ int) {
			fmt.Fprintf(b, "(%d, %d, %d, %d, %s)",
				1+skewed(rng, sc.Items), 1+rng.Intn(sc.Customers), 1+rng.Int63n(d.MaxTicket),
				1+rng.Intn(3), money(int64(rng.Intn(5000))))
		})
	}
	return d
}

// batches appends INSERT statements of at most Scale.Batch rows each.
func (d *Dataset) batches(prefix string, total int, row func(b *strings.Builder, i int)) {
	for start := 0; start < total; start += d.Scale.Batch {
		end := min(start+d.Scale.Batch, total)
		var b strings.Builder
		b.WriteString(prefix)
		for i := start; i < end; i++ {
			if i > start {
				b.WriteString(", ")
			}
			row(&b, i)
		}
		d.Inserts = append(d.Inserts, b.String())
		d.InsertRows = append(d.InsertRows, end-start)
	}
}

// skewed draws from [0,n): 60 % of draws land on the first fifth of keys.
func skewed(rng *rand.Rand, n int) int {
	if rng.Float64() < 0.6 {
		return rng.Intn(n/5 + 1)
	}
	return rng.Intn(n)
}

// money renders cents as a DECIMAL(…,2) literal.
func money(cents int64) string {
	return fmt.Sprintf("%d.%02d", cents/100, cents%100)
}
