package hive

import (
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
)

var updatePlanGolden = flag.Bool("update-plan-golden", false, "re-record testdata/physical_plans.golden.json")

// planGoldenQueries are the 45 statements whose physical plans are pinned:
// the join-shape queries of TestJoinOrderGolden plus the 31 TPC-DS-derived
// queries.
func planGoldenQueries() map[string]string {
	queries := map[string]string{}
	for name, q := range joinOrderQueries {
		queries[name] = q
	}
	for _, q := range bench.TPCDSQueries() {
		queries["tpcds_"+q.Name] = q.SQL
	}
	return queries
}

// planShapeQueries reach the operator kinds the 45 do not, each taken from
// the suite that exercises it: parallel ORDER BY and ORDER BY+LIMIT over the
// six-delta ord table, the co-partitioned join and partition-keyed GROUP BY
// of props_test.go, window sort push-down and shared partition passes,
// UNION ALL, a plain LIMIT and LIMIT 0.
var planShapeQueries = map[string]string{
	"order_by":       `SELECT k, tag FROM ord ORDER BY k`,
	"order_by_limit": `SELECT k, tag FROM ord ORDER BY k DESC LIMIT 7`,
	"limit":          `SELECT k, tag FROM ord LIMIT 5`,
	"limit_zero":     `SELECT k FROM ord ORDER BY k LIMIT 0`,
	"union_all":      `SELECT k FROM ord WHERE grp = 1 UNION ALL SELECT k FROM ord WHERE grp = 2`,
	"partition_agg": `SELECT ss_sold_date_sk, COUNT(*), SUM(ss_sales_price) FROM store_sales
	                  GROUP BY ss_sold_date_sk ORDER BY ss_sold_date_sk`,
	"partition_join": `SELECT ss_item_sk, ss_ticket_number, sr_item_sk FROM store_sales, store_returns
	                   WHERE ss_sold_date_sk = sr_returned_date_sk AND ss_item_sk = sr_item_sk`,
	"window_presorted": `SELECT g, k, v, rank() OVER (PARTITION BY g ORDER BY k) FROM w ORDER BY g, k`,
	"window_shared_pass": `SELECT g, k, v,
	        SUM(v) OVER (PARTITION BY g ORDER BY k),
	        rank() OVER (PARTITION BY g ORDER BY v DESC),
	        COUNT(v) OVER (PARTITION BY k)
	      FROM w`,
}

// planLineKinds is every line ExplainPhysical can emit, and every
// annotation it can hang on one. The golden must contain each, or a
// rendering could change unseen.
var planLineKinds = []string{
	"TableScan table=", " shared-queue", "Filter", "Project", "Limit n=", "Sort keys=", "TopN n=",
	"MergeExchange workers=", "ParallelTopN workers=", "Exchange workers=",
	"ParallelHashAgg workers=", " partition-wise", "HashAgg groups=",
	"HashJoin kind=", " shared-build", "PartitionJoin kind=",
	"Window fns=", " presorted=", " shared-partition-pass=",
	"Spool id=", "SetOp kind=", "UnionAll", "Values rows=",
}

// planGoldenWarehouse loads everything the pinned statements read: the tiny
// TPC-DS schema, ord and w.
func planGoldenWarehouse(t *testing.T) *Session {
	t.Helper()
	_, s := open(t)
	if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, bench.TinyTPCDS()); err != nil {
		t.Fatal(err)
	}
	createOrdTable(s)
	createWindowTable(s, 400)
	s.SetConf("hive.query.results.cache.enabled", "false")
	return s
}

// TestPhysicalPlanGolden pins Session.LastPhysicalPlan byte for byte: the
// 45 statements under llap at hive.parallelism 1/2/4 and container at 1,
// each with hive.planner.properties on and off, and the shape statements
// under llap at 1 and 4. A refactor of the physical passes (properties,
// DAG analysis, parallel placement, EXPLAIN) must reproduce every line.
func TestPhysicalPlanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping TPC-DS setup")
	}
	s := planGoldenWarehouse(t)
	got := map[string]string{}
	record := func(prefix string, queries map[string]string) {
		for name, q := range queries {
			got[prefix+"/"+name] = physPlan(t, s, q)
		}
	}
	for _, props := range []string{"true", "false"} {
		s.SetConf("hive.planner.properties", props)
		s.SetConf("hive.execution.mode", "container")
		s.SetConf("hive.parallelism", "1")
		record("container/dop1/props="+props, planGoldenQueries())
		s.SetConf("hive.execution.mode", "llap")
		for _, dop := range []string{"1", "2", "4"} {
			s.SetConf("hive.parallelism", dop)
			record("llap/dop"+dop+"/props="+props, planGoldenQueries())
		}
		// The partition-wise shapes need the probe scan free of dynamic
		// partition pruning, as in props_test.go.
		s.SetConf("hive.optimize.semijoin", "false")
		for _, dop := range []string{"1", "4"} {
			s.SetConf("hive.parallelism", dop)
			record("shapes/llap/dop"+dop+"/props="+props, planShapeQueries)
		}
		s.SetConf("hive.optimize.semijoin", "true")
	}

	const path = "testdata/physical_plans.golden.json"
	if *updatePlanGolden {
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
		t.Errorf("golden has %d plans, the test produces %d; re-record on the commit that introduced the golden", len(want), len(got))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, w := got[name], want[name]; g != w {
			t.Errorf("%s: physical plan changed\n got:\n%s\nwant:\n%s", name, g, w)
		}
	}
	var all strings.Builder
	for _, p := range want {
		all.WriteString(p)
	}
	for _, kind := range planLineKinds {
		if !strings.Contains(all.String(), kind) {
			t.Errorf("no golden plan contains %q: that rendering is unpinned", kind)
		}
	}
}

// stripSpillExchanges removes the SpillExchange lines of an MR-mode plan
// and dedents each removed line's subtree one level, returning the plan and
// how many lines it removed.
func stripSpillExchanges(plan string) (string, int) {
	var out strings.Builder
	var open []int // depths of removed lines whose subtrees are still open
	removed := 0
	for _, line := range strings.SplitAfter(plan, "\n") {
		text := strings.TrimLeft(line, " ")
		depth := (len(line) - len(text)) / 2
		for len(open) > 0 && depth <= open[len(open)-1] {
			open = open[:len(open)-1]
		}
		if text == "SpillExchange\n" {
			open = append(open, depth)
			removed++
			continue
		}
		out.WriteString(strings.Repeat("  ", depth-len(open)))
		out.WriteString(text)
	}
	return out.String(), removed
}

// TestMRPlanRendersBelowSpillExchange is the regression for MR-mode
// LastPhysicalPlan stopping at the first stage boundary: the MR plan is the
// container plan with one SpillExchange on every input of every pipeline
// breaker, and nothing else differs.
func TestMRPlanRendersBelowSpillExchange(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping TPC-DS setup")
	}
	s := planGoldenWarehouse(t)
	s.SetConf("hive.parallelism", "1")
	breakerInputs := map[string]int{"HashJoin": 2, "SetOp": 2, "HashAgg": 1, "Sort": 1, "TopN": 1, "Window": 1}
	for name, q := range planGoldenQueries() {
		s.SetConf("hive.execution.mode", "container")
		container := physPlan(t, s, q)
		s.SetConf("hive.execution.mode", "mr")
		mr := physPlan(t, s, q)
		stripped, spills := stripSpillExchanges(mr)
		if stripped != container {
			t.Errorf("%s: mr plan without its SpillExchange lines differs from the container plan\n mr:\n%s\ncontainer:\n%s", name, mr, container)
		}
		want := 0
		for _, line := range strings.Split(container, "\n") {
			kind, _, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
			want += breakerInputs[kind]
		}
		if spills != want || spills == 0 {
			t.Errorf("%s: %d SpillExchange lines, want one per breaker input = %d\n%s", name, spills, want, mr)
		}
	}
}
