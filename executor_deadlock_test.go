package hive

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestSerialPlansShareSmallExecutorPool is the regression for the executor
// pool's hold-and-wait: a serial plan asks llap.Daemons.Acquire for one slot
// per vertex, Acquire took them one receive at a time, and two sessions each
// running a plan of five or more vertices on the default 8-executor pool
// could each end up holding half of what both needed. Acquisition is now
// all-or-nothing, so both sessions finish.
func TestSerialPlansShareSmallExecutorPool(t *testing.T) {
	wh, err := Open(Config{Executors: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	setup := wh.Session()
	if err := bench.SetupTPCDS(func(q string) error { _, err := setup.Exec(q); return err }, bench.TinyTPCDS()); err != nil {
		t.Fatal(err)
	}
	const join4 = `SELECT i_category, s_state, COUNT(*), SUM(ss_sales_price)
		FROM store_sales, item, store, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk AND ss_sold_date_sk = d_date_sk
		  AND ss_sold_date_sk = %d
		GROUP BY i_category, s_state`
	statements := 200
	if testing.Short() {
		statements = 50
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := wh.Session()
			s.SetConf("hive.parallelism", "1")
			s.SetConf("hive.query.results.cache.enabled", "false")
			for i := 0; i < statements; i++ {
				if _, err := s.Exec(fmt.Sprintf(join4, 1+(i+c)%8)); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("two sessions running five-vertex serial plans on 8 executors did not finish: executor slots deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
