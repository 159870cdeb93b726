package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	hive "repro"
)

// The five workloads, in the order `-workload all` runs them. BENCHMARK.json
// repeats each name and why; TestBenchmarkJSON keeps the two in step.
var workloads = []*workloadDef{tpcdsWarm, scanCold, spillBudget, servePoint, acidMixed}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func analyticScale(smoke bool) Scale {
	if smoke {
		return scaleSmoke
	}
	return scaleFull
}

// verifyPartitions is run once per pass by the three analytic workloads. It
// checks the three things the generator counted while emitting rows: rows
// per partition, COUNT(*) and SUM(ss_sales_price).
func verifyPartitions(ds *Dataset) Statement {
	return Statement{
		Name: "verify_partitions",
		SQL:  `SELECT ss_sold_date_sk, COUNT(*), SUM(ss_sales_price) FROM store_sales GROUP BY ss_sold_date_sk`,
		Check: func(res *hive.Result) error {
			if len(res.Rows) != len(ds.PartRows) {
				return fmt.Errorf("got %d partitions, want %d", len(res.Rows), len(ds.PartRows))
			}
			for _, row := range res.Rows {
				day := int(row[0].I)
				if day < 1 || day > len(ds.PartRows) {
					return fmt.Errorf("unknown partition %d", day)
				}
				c, err := cents(row[2])
				if err != nil {
					return err
				}
				if row[1].I != ds.PartRows[day-1] || c != ds.PartCents[day-1] {
					return fmt.Errorf("partition %d: got count=%d sum=%s, want count=%d sum=%s",
						day, row[1].I, money(c), ds.PartRows[day-1], money(ds.PartCents[day-1]))
				}
			}
			return nil
		},
	}
}

// passDriver runs a fixed list of statements, one client, pass after pass.
type passDriver struct {
	c      *client
	stmts  []Statement
	frozen map[string]string
}

func openPasses(r *run, conf map[string]string, stmts []Statement) *passDriver {
	c := r.newClient()
	c.s.SetConf("hive.parallelism", "2")
	c.s.SetConf("hive.query.results.cache.enabled", "false")
	for k, v := range conf {
		c.s.SetConf(k, v)
	}
	return &passDriver{c: c, stmts: stmts}
}

func (d *passDriver) pass() {
	rec := d.c.rec
	n0 := len(rec.execUS)
	for i := range d.stmts {
		d.c.exec(&d.stmts[i])
	}
	rec.passMeanMS = append(rec.passMeanMS, sum(rec.execUS[n0:])/1e3/float64(len(d.stmts)))
}

func (d *passDriver) warm() *samples {
	d.c.rec, d.c.tr = newSamples(), nil
	d.pass()
	d.frozen = d.c.chk.digests()
	return d.c.rec
}

func (d *passDriver) measure(lim limit, tr *Tracer) *samples {
	d.c.rec, d.c.tr = newSamples(), tr
	start := time.Now()
	for n := 0; lim.more(n, start); n++ {
		d.pass()
	}
	return d.c.rec
}

func (d *passDriver) golden() map[string]string { return d.frozen }
func (d *passDriver) shortUnits() int           { return 1 }
func (d *passDriver) close()                    { d.c.s.Close() }

var tpcdsWarm = &workloadDef{
	name:  "tpcds_warm",
	why:   "the 31 TPC-DS-derived queries of the paper, 200k fact rows that fit the default caches: exec (joins, grouping sets, windows, sorts) does the work, storage little; the neutrality check",
	scale: analyticScale,
	config: func(Scale) hive.Config {
		return hive.Config{} // default 64 MiB chunk / 32 MiB decoded cache: the table fits
	},
	generate: Generate,
	table:    "store_sales",
	open: func(r *run) (driver, error) {
		ds := r.ds
		stmts := append([]Statement(nil), tpcdsQueries...)
		for i := range stmts {
			switch stmts[i].Name {
			case "q61": // second column is COUNT(*) of the fact table
				stmts[i].Check = func(res *hive.Result) error {
					if len(res.Rows) != 1 || res.Rows[0][1].I != ds.SalesRows {
						return fmt.Errorf("total count: got %v, want %d", res.Rows, ds.SalesRows)
					}
					return nil
				}
			case "q43": // revenue per store; every store exists, so the sums add up to the total
				stmts[i].Check = func(res *hive.Result) error {
					var total int64
					for _, row := range res.Rows {
						c, err := cents(row[1])
						if err != nil {
							return err
						}
						total += c
					}
					if total != ds.SalesCents {
						return fmt.Errorf("revenue over stores: got %s, want %s", money(total), money(ds.SalesCents))
					}
					return nil
				}
			}
		}
		stmts = append(stmts, verifyPartitions(ds))
		return openPasses(r, nil, stmts), nil
	},
}

var scanCold = &workloadDef{
	name:  "scan_cold",
	why:   "four scan-bound statements over the same rows with caches 4x and 40x smaller than the data: orc decode, llap eviction and dfs reads do the work, exec little",
	scale: analyticScale,
	config: func(sc Scale) hive.Config {
		// 3.9 MB encoded and ≈20 MB decoded at full scale, so 1 MiB and
		// 512 KiB hold a quarter and a fortieth; smoke scales both by rows.
		f := int64(scaleFull.SalesRows / sc.SalesRows)
		return hive.Config{CacheBytes: (1 << 20) / f, DecodedCacheBytes: (512 << 10) / f}
	},
	generate: Generate,
	table:    "store_sales",
	open: func(r *run) (driver, error) {
		ds := r.ds
		lo := ds.MaxTicket * 2 / 5
		hi := lo + ds.MaxTicket/50
		stmts := []Statement{
			verifyPartitions(ds),
			{Name: "filter_nonpartition", SQL: `SELECT COUNT(*), SUM(ss_sales_price) FROM store_sales WHERE ss_quantity = 3 AND ss_store_sk = 2`},
			{Name: "distinct_by_item", SQL: `SELECT ss_item_sk, COUNT(DISTINCT ss_customer_sk) FROM store_sales GROUP BY ss_item_sk`},
			{Name: "ticket_range", SQL: fmt.Sprintf(`SELECT COUNT(*), MIN(ss_ticket_number), MAX(ss_ticket_number) FROM store_sales WHERE ss_ticket_number BETWEEN %d AND %d`, lo, hi),
				Check: func(res *hive.Result) error { // tickets are 1..MaxTicket, one per row
					if len(res.Rows) != 1 || res.Rows[0][0].I != hi-lo+1 || res.Rows[0][1].I != lo || res.Rows[0][2].I != hi {
						return fmt.Errorf("got %v, want count=%d min=%d max=%d", res.Rows, hi-lo+1, lo, hi)
					}
					return nil
				}},
		}
		return openPasses(r, nil, stmts), nil
	},
}

// spillBudgetBytes is hive.query.max.memory for spill_budget. At full scale
// 4 MiB makes the sort, the aggregation, the join build and the window all
// spill; the smoke data is 100x smaller, and so is its budget.
func spillBudgetBytes(sc Scale) int64 {
	return (4 << 20) / int64(scaleFull.SalesRows/sc.SalesRows)
}

var spillBudget = &workloadDef{
	name:  "spill_budget",
	why:   "full ORDER BY, two-key GROUP BY, fact self-join and a window under a 4 MiB query budget: the only workload where spill files, the memory governor and scratch traffic dominate",
	scale: analyticScale,
	config: func(Scale) hive.Config {
		return hive.Config{}
	},
	generate: Generate,
	table:    "store_sales",
	open: func(r *run) (driver, error) {
		ds := r.ds
		wantRows := func(res *hive.Result) error {
			if int64(len(res.Rows)) != ds.SalesRows {
				return fmt.Errorf("got %d rows, want %d", len(res.Rows), ds.SalesRows)
			}
			return nil
		}
		stmts := []Statement{
			{Name: "order_by", SQL: `SELECT ss_ticket_number, ss_item_sk, ss_customer_sk, ss_sales_price
				FROM store_sales ORDER BY ss_sales_price DESC, ss_ticket_number`, Check: wantRows},
			{Name: "group_by_two_keys", SQL: `SELECT ss_customer_sk, ss_item_sk, COUNT(*), SUM(ss_sales_price)
				FROM store_sales GROUP BY ss_customer_sk, ss_item_sk`},
			{Name: "self_join", SQL: `SELECT COUNT(*), SUM(a.ss_sales_price)
				FROM store_sales a JOIN store_sales b ON a.ss_ticket_number = b.ss_ticket_number`,
				Check: wantCountSum(ds.SalesRows, ds.SalesCents)},
			{Name: "window_rank", SQL: `SELECT ss_ticket_number,
				rank() OVER (PARTITION BY ss_customer_sk ORDER BY ss_sales_price DESC, ss_ticket_number) AS rk
				FROM store_sales`, Check: wantRows},
			verifyPartitions(ds),
		}
		budget := strconv.FormatInt(spillBudgetBytes(r.scale), 10)
		return openPasses(r, map[string]string{"hive.query.max.memory": budget}, stmts), nil
	},
}

// servePool is the one pool of serve_point's resource plan.
const servePool = "hot"

// serveBlock is the statement mix of serve_point, as counts per block of 20:
// every block holds exactly this mix in a seeded order, so the share of each
// class does not vary from run to run the way independent draws would.
var serveBlock = []struct {
	class string
	n     int
}{{"pk_lookup", 8}, {"item_agg", 5}, {"fact_lookup", 5}, {"join4", 1}, {"execute_join4", 1}}

const serveJoin = `SELECT i_category, s_state, COUNT(*), SUM(ss_sales_price)
	FROM store_sales, item, store, date_dim
	WHERE ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk AND ss_sold_date_sk = d_date_sk
	  AND ss_sold_date_sk = %d
	GROUP BY i_category, s_state`

var servePoint = &workloadDef{
	name: "serve_point",
	why:  "the serving regime: two closed-loop clients, a 24k-row hot set, plan-cache hits with rotating literals under wm admission; per-query fixed cost is most of each statement",
	scale: func(smoke bool) Scale {
		if smoke {
			return scaleSmoke
		}
		return scaleHot
	},
	config: func(Scale) hive.Config {
		// 32 executors, not the default 8: see README, "Known engine bug".
		return hive.Config{Executors: 32, MemoryBytes: 256 << 20}
	},
	generate: Generate,
	afterLoad: []string{
		`CREATE RESOURCE PLAN serve`,
		`CREATE POOL serve.` + servePool + ` WITH alloc_fraction=1.0, query_parallelism=4, memory_fraction=1.0`,
		`ALTER PLAN serve SET DEFAULT POOL = ` + servePool,
		`ALTER RESOURCE PLAN serve ENABLE ACTIVATE`,
	},
	table: "store_sales",
	open: func(r *run) (driver, error) {
		d := &serveDriver{r: r}
		for i := 0; i < 2; i++ {
			c := r.newClient()
			c.s.SetConf("hive.parallelism", "1")
			c.s.SetConf("hive.query.results.cache.enabled", "false")
			sc := &serveClient{client: c, ds: r.ds, rng: rand.New(rand.NewSource(r.opt.seed*2 + int64(i))), last: map[string]int{}}
			// PREPARE compiles the template; EXECUTE then binds and runs.
			if _, err := c.s.Exec(`PREPARE j4 AS ` + fmt.Sprintf(serveJoin, 1)); err != nil {
				return nil, err
			}
			d.clients = append(d.clients, sc)
		}
		return d, nil
	},
}

type serveClient struct {
	*client
	ds   *Dataset
	rng  *rand.Rand
	last map[string]int // last literal per class: the same text never runs twice in a row
	ops  []string       // scratch for one block
}

// pick draws a literal in [0,n) different from the class's previous one.
func (c *serveClient) pick(class string, n int) int {
	v := c.rng.Intn(n)
	if prev, ok := c.last[class]; ok && prev == v {
		v = (v + 1) % n
	}
	c.last[class] = v
	return v
}

func (c *serveClient) statement(class string) Statement {
	ds := c.ds
	switch class {
	case "pk_lookup":
		k := c.pick(class, len(ds.Customers))
		want := ds.Customers[k]
		sql := fmt.Sprintf(`SELECT c_customer_id, c_birth_year, c_preferred FROM customer WHERE c_customer_sk = %d`, k+1)
		return Statement{Name: class, SQL: sql, Key: sql, Check: func(res *hive.Result) error {
			if len(res.Rows) != 1 || res.Rows[0][0].S != want.ID || int(res.Rows[0][1].I) != want.BirthYear || res.Rows[0][2].S != want.Preferred {
				return fmt.Errorf("customer %d: got %v, want %+v", k+1, res.Rows, want)
			}
			return nil
		}}
	case "item_agg":
		cat := c.pick(class, len(categories))
		sql := fmt.Sprintf(`SELECT COUNT(*), SUM(i_current_price) FROM item WHERE i_category = '%s'`, categories[cat])
		return Statement{Name: class, SQL: sql, Key: sql, Check: wantCountSum(ds.CategoryItems[cat], ds.CategoryCents[cat])}
	case "fact_lookup":
		day := c.pick(class, ds.Scale.Days)
		sql := fmt.Sprintf(`SELECT COUNT(*), SUM(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk = %d`, day+1)
		return Statement{Name: class, SQL: sql, Key: sql, Check: wantCountSum(ds.PartRows[day], ds.PartCents[day])}
	}
	day := c.pick(class, ds.Scale.Days)
	sql := fmt.Sprintf(serveJoin, day+1)
	if class == "execute_join4" {
		sql = fmt.Sprintf(`EXECUTE j4 (%d)`, day+1)
	}
	return Statement{Name: class, SQL: sql, Key: sql, Check: func(res *hive.Result) error {
		// Every fact row of the day joins exactly one item, store and date.
		var n, total int64
		for _, row := range res.Rows {
			sum, err := cents(row[3])
			if err != nil {
				return err
			}
			n += row[2].I
			total += sum
		}
		if n != ds.PartRows[day] || total != ds.PartCents[day] {
			return fmt.Errorf("day %d: got count=%d sum=%s, want count=%d sum=%s", day+1, n, money(total), ds.PartRows[day], money(ds.PartCents[day]))
		}
		return nil
	}}
}

// block runs one block of 20 statements in a seeded order.
func (c *serveClient) block() {
	c.ops = c.ops[:0]
	for _, m := range serveBlock {
		for i := 0; i < m.n; i++ {
			c.ops = append(c.ops, m.class)
		}
	}
	c.rng.Shuffle(len(c.ops), func(i, j int) { c.ops[i], c.ops[j] = c.ops[j], c.ops[i] })
	for _, class := range c.ops {
		st := c.statement(class)
		c.exec(&st)
	}
}

type serveDriver struct {
	r       *run
	clients []*serveClient
	frozen  map[string]string
}

// run gives every client its own goroutine and merges what they measured.
func (d *serveDriver) run(lim limit, tr *Tracer) *samples {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range d.clients {
		c.rec, c.tr = newSamples(), tr
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for n := 0; lim.more(n, start); n++ {
				c.block()
			}
		}(c)
	}
	wg.Wait()
	all := newSamples()
	for _, c := range d.clients {
		all.merge(c.rec)
	}
	return all
}

func (d *serveDriver) warm() *samples {
	s := d.run(limit{units: 10}, nil)
	d.frozen = d.clients[0].chk.digests()
	return s
}

func (d *serveDriver) measure(lim limit, tr *Tracer) *samples { return d.run(lim, tr) }
func (d *serveDriver) golden() map[string]string              { return d.frozen }

// shortUnits: 125 blocks of 20 on each of two clients is 5 000 statements.
func (d *serveDriver) shortUnits() int {
	if d.r.opt.smoke {
		return 5
	}
	return 125
}

func (d *serveDriver) close() {
	for _, c := range d.clients {
		c.s.Close()
	}
}
