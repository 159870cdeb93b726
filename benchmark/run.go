package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	hive "repro"
	"repro/internal/hs2"
)

// queryTimeoutMS is hive.query.timeout on every benchmark session. The
// slowest statement of any workload (the self-join of spill_budget) takes
// about 1.2 s on the 2-core reference box, so one that reaches 10 s is stuck:
// it fails, is counted, and the run goes on to print its result. The timeout
// is below stallAfter so that the watchdog is left with what a timeout
// cannot end.
const queryTimeoutMS = 10000

// stallAfter is how long the watchdog waits for any statement to complete.
const stallAfter = 20 * time.Second

// watchdog ends a run in which nothing completes: it dumps every goroutine
// and exits non-zero, so the statements still owed count as failed. It is
// needed because two sessions running serial multi-vertex plans can block
// each other in llap.Daemons.Acquire for ever (README, "Known engine bug").
type watchdog struct {
	progress atomic.Int64
	stop     chan struct{}
	done     chan struct{}
}

func startWatchdog(what string) *watchdog {
	w := &watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last, lastChange := int64(-1), time.Now()
		for {
			select {
			case <-w.stop:
				return
			case now := <-tick.C:
				if p := w.progress.Load(); p != last {
					last, lastChange = p, now
				} else if now.Sub(lastChange) > stallAfter {
					fmt.Fprintf(os.Stderr, "benchmark: %s stalled: nothing completed for %s after step %d; every remaining statement counts as failed\n", what, stallAfter, last)
					_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
					os.Exit(3)
				}
			}
		}
	}()
	return w
}

func (w *watchdog) tick() { w.progress.Add(1) }

func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

// samples is what one phase of a workload measured.
type samples struct {
	lat       map[string][]float64 // read latency in ms, by statement name
	writeLat  map[string][]float64 // DML latency in ms, by statement name
	writeRows int64
	writeTime time.Duration
	execUS    []float64 // every Session.Exec, µs (the trace-overhead base)
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
	// compaction is the time spent in compaction, in seconds: one value per
	// cycle on acid_mixed, one for the whole fact table elsewhere.
	compaction []float64
	// storedPerRow is bytes under the warehouse root over live rows at the
	// end of each acid_mixed cycle, when the table has just been compacted
	// and cleaned; empty elsewhere, where nothing is written while timed.
	storedPerRow []float64
	// passMeanMS is the mean statement latency of each pass, in ms, on the
	// three workloads that run passes; empty elsewhere.
	passMeanMS []float64
	wall       time.Duration
	res        resources
	// What only traced phases collect, from Session.Last* and the counters.
	peakBytes      int64
	spilledBytes   int64
	stripesSkipped int64
	stripesSeen    int64 // stripes of the main table, summed over reads
	spillFiles     int64 // dfs writes made while a read ran: its spill files
	queuedSeen     int64 // completions at which the pool had a waiter
}

func newSamples() *samples {
	return &samples{lat: map[string][]float64{}, writeLat: map[string][]float64{}}
}

func (s *samples) fail(err error) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
}

func (s *samples) merge(o *samples) {
	for k, v := range o.lat {
		s.lat[k] = append(s.lat[k], v...)
	}
	for k, v := range o.writeLat {
		s.writeLat[k] = append(s.writeLat[k], v...)
	}
	s.writeRows += o.writeRows
	s.writeTime += o.writeTime
	s.execUS = append(s.execUS, o.execUS...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.compaction = append(s.compaction, o.compaction...)
	s.storedPerRow = append(s.storedPerRow, o.storedPerRow...)
	s.passMeanMS = append(s.passMeanMS, o.passMeanMS...)
	s.peakBytes = max(s.peakBytes, o.peakBytes)
	s.spilledBytes += o.spilledBytes
	s.stripesSkipped += o.stripesSkipped
	s.stripesSeen += o.stripesSeen
	s.spillFiles += o.spillFiles
	s.queuedSeen += o.queuedSeen
}

func flatten(byName map[string][]float64) []float64 {
	var all []float64
	for _, name := range sortedKeys(byName) {
		all = append(all, byName[name]...)
	}
	return all
}

func (s *samples) reads() []float64  { return flatten(s.lat) }
func (s *samples) writes() []float64 { return flatten(s.writeLat) }

// passSeconds is the sum over distinct statements of each one's median
// latency: the time of one pass with every statement at its typical speed.
// On acid_mixed the DML statements are part of the pass.
func (s *samples) passSeconds() float64 {
	var t float64
	for _, v := range s.lat {
		t += median(v)
	}
	for _, v := range s.writeLat {
		t += median(v)
	}
	return t / 1000
}

// client is one closed-loop caller: it sends its next statement only when
// the previous one has returned.
type client struct {
	r   *run
	s   *hive.Session
	chk *checker
	rec *samples
	tr  *Tracer
}

func (r *run) newClient() *client {
	s := r.wh.Session()
	s.SetConf("hive.query.timeout", strconv.Itoa(queryTimeoutMS))
	return &client{r: r, s: s, chk: newChecker(r.golden, r.scale.Name, r.def.name, r.opt.seed), rec: newSamples()}
}

// exec runs one statement, checks its result and records its latency. The
// result is nil when the statement failed.
func (c *client) exec(st *Statement) *hive.Result {
	var writes0 int64
	if c.tr != nil {
		writes0 = c.r.wh.Server().FS.IOStats().WriteOps
	}
	op := c.tr.begin(0, "op")
	ex := c.tr.begin(op, "hs2.execute")
	t0 := time.Now()
	res, err := c.s.Exec(st.SQL)
	d := time.Since(t0)
	c.tr.end(ex)
	c.r.wd.tick()
	c.rec.attempted++
	c.rec.execUS = append(c.rec.execUS, us(d))
	if err == nil {
		err = c.chk.verify(st, res)
	} else {
		err = fmt.Errorf("%s: %w", st.Name, err)
	}
	if err != nil {
		c.rec.fail(err)
		res = nil
	}
	if st.Write {
		c.rec.writeLat[st.Name] = append(c.rec.writeLat[st.Name], ms(d))
		c.rec.writeRows += int64(st.Rows)
		c.rec.writeTime += d
	} else {
		c.rec.lat[st.Name] = append(c.rec.lat[st.Name], ms(d))
	}
	if c.tr != nil {
		c.observe(ex, op, st, writes0)
	}
	c.tr.end(op)
	return res
}

// observe adds what only the traced run collects: the engine's own compile
// time as a child span, the Session.Last* counters, and the compile stages
// replayed on the statement's text as sibling spans.
func (c *client) observe(ex, op int64, st *Statement, writes0 int64) {
	in := c.s.Internal()
	if !st.Write {
		c.rec.spillFiles += c.r.wh.Server().FS.IOStats().WriteOps - writes0
		c.tr.interval(ex, "hs2.compile", time.Duration(in.LastCompileNanos))
		c.rec.peakBytes = max(c.rec.peakBytes, in.LastPeakMemoryBytes)
		c.rec.spilledBytes += in.LastSpilledBytes
		c.rec.stripesSkipped += in.LastStripesSkipped
		c.rec.stripesSeen += c.r.tableStripes()
	}
	if mgr := c.r.wh.Server().WorkloadManager(); mgr != nil {
		if ps, err := mgr.Stats(servePool); err == nil && ps.Queued > 0 {
			c.rec.queuedSeen++
		}
	}
	replayCompile(c.tr, op, c.r.wh.Server(), st.SQL)
}

// limit bounds one phase: exactly units units when units > 0, otherwise
// whole units until the deadline has passed.
type limit struct {
	units    int
	deadline time.Duration
}

func (l limit) more(done int, start time.Time) bool {
	if l.units > 0 {
		return done < l.units
	}
	return done == 0 || time.Since(start) < l.deadline
}

// driver is a workload bound to a loaded warehouse.
type driver interface {
	// warm runs the untimed warm-up: caches fill, plans compile, and every
	// statement's digest is recorded.
	warm() *samples
	// measure runs whole units of the workload within lim and returns what
	// it measured; tr is nil for the untraced run.
	measure(lim limit, tr *Tracer) *samples
	// golden returns the digests recorded during warm-up, by statement key.
	golden() map[string]string
	// shortUnits is how many units the traced run measures.
	shortUnits() int
	// close ends the driver's sessions.
	close()
}

// workloadDef describes one of the five workloads.
type workloadDef struct {
	name string
	why  string
	// scale picks the data volume; smoke is the `go test` configuration.
	scale func(smoke bool) Scale
	// config sizes the warehouse.
	config func(sc Scale) hive.Config
	// generate makes the load from the seed.
	generate func(sc Scale, seed int64) *Dataset
	// afterLoad is extra set-up inside setup_s (a resource plan).
	afterLoad []string
	// open binds the workload to the loaded warehouse.
	open func(r *run) (driver, error)
	// table names the workload's main table: the one the layer drivers
	// read and, where the timed phase does not compact, the one that is
	// compacted after it.
	table string
}

// run is one execution of one workload.
type run struct {
	opt    options
	def    *workloadDef
	scale  Scale
	ds     *Dataset
	golden Golden
	wd     *watchdog
	wh     *hive.Warehouse

	setupS   []float64
	loadLat  []float64 // INSERT latency over every set-up, ms
	loadRows int64
	loadTime time.Duration

	stripes int64 // see tableStripes
}

// setupOnce opens a warehouse and loads it: DDL, the INSERTs, ANALYZE and
// the workload's own extra statements. The returned duration is setup_s.
func (r *run) setupOnce() (*hive.Warehouse, time.Duration, error) {
	wh, err := hive.Open(r.def.config(r.scale))
	if err != nil {
		return nil, 0, err
	}
	s := wh.Session()
	defer s.Close()
	s.SetConf("hive.query.timeout", strconv.Itoa(queryTimeoutMS))
	t0 := time.Now()
	step := func(stmts []string, each func(i int, d time.Duration)) error {
		for i, q := range stmts {
			t1 := time.Now()
			if _, err := s.Exec(q); err != nil {
				return fmt.Errorf("set-up: %.60s…: %w", q, err)
			}
			r.wd.tick()
			if each != nil {
				each(i, time.Since(t1))
			}
		}
		return nil
	}
	err = step(r.ds.DDL, nil)
	if err == nil {
		err = step(r.ds.Inserts, func(i int, d time.Duration) {
			r.loadLat = append(r.loadLat, ms(d))
			r.loadRows += int64(r.ds.InsertRows[i])
			r.loadTime += d
		})
	}
	if err == nil {
		err = step(r.ds.Analyze, nil)
	}
	if err == nil {
		err = step(r.def.afterLoad, nil)
	}
	if err != nil {
		_ = wh.Close()
		return nil, 0, err
	}
	return wh, time.Since(t0), nil
}

// setup loads n warehouses one after the other, keeps the last and records
// every load's time, so that setup_s is a median and not one reading.
func (r *run) setup(n int) error {
	for i := 0; i < n; i++ {
		if r.wh != nil {
			if err := r.wh.Close(); err != nil {
				return err
			}
			r.wh = nil
			// Return the previous warehouse's memory before loading the
			// next, or peak_rss_mb would count the copies together.
			debug.FreeOSMemory()
		}
		wh, d, err := r.setupOnce()
		if err != nil {
			return err
		}
		r.wh = wh
		r.setupS = append(r.setupS, d.Seconds())
	}
	// The load script is the benchmark's own memory, and the largest thing
	// it holds: release it, so that the heap the workload runs in, and with
	// it peak_rss_mb, is the engine's.
	r.ds.Inserts = nil
	return nil
}

// counterValues reads every exported engine counter the per-layer metrics
// are deltas of.
func counterValues(srv *hs2.Server) map[string]int64 {
	io := srv.FS.IOStats()
	ch := srv.Cache.Stats()
	dc := srv.Decoded.Stats()
	mt := srv.MetaCache.Stats()
	el := srv.Elevator.Stats()
	ph, pm := srv.Plans.Stats()
	rh, rm, rw := srv.Results.Stats()
	return map[string]int64{
		"dfs.read_ops": io.ReadOps, "dfs.bytes_read": io.BytesRead, "dfs.write_ops": io.WriteOps,
		"llap.chunk_hits": ch.Hits, "llap.chunk_misses": ch.Misses, "llap.chunk_evictions": ch.Evictions,
		"llap.decoded_hits": dc.Hits, "llap.decoded_misses": dc.Misses, "llap.decoded_evictions": dc.Evictions,
		"llap.meta_hits": mt.Hits, "llap.meta_misses": mt.Misses,
		"llap.elevator_enqueued": el.Enqueued, "llap.elevator_decoded": el.Decoded,
		"llap.elevator_dropped": el.Dropped, "llap.elevator_coalesced": el.Coalesced,
		"plancache.hits": ph, "plancache.misses": pm,
		"resultcache.hits": rh, "resultcache.misses": rm, "resultcache.waits": rw,
	}
}

func counterDelta(after, before map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// timed wraps one measured phase with the process-wide resource readings.
func (r *run) timed(d driver, lim limit, tr *Tracer) *samples {
	runtime.GC() // start every phase from a collected heap
	res0 := readResources()
	t0 := time.Now()
	s := d.measure(lim, tr)
	s.wall = time.Since(t0)
	s.res = readResources().since(res0)
	return s
}
