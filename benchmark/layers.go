package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/acid"
	"repro/internal/analyze"
	"repro/internal/dfs"
	"repro/internal/exec"
	"repro/internal/hs2"
	"repro/internal/metastore"
	"repro/internal/opt"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/resultcache"
	"repro/internal/spill"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/wm"
)

// The layer drivers time calls into each module's exported functions from
// outside, against the warehouse the workload just ran on. Each records
// spans named driver.<layer>.<call>; metrics.go turns them into the
// per-layer metrics. Spans inside the engine are a later change.

// scratchRoot is where drivers write their own files in the warehouse's
// file system, outside /warehouse so that stored_bytes_per_row ignores them.
const scratchRoot = "/bench_scratch"

// replayCompile repeats the compile stages on one statement's text as
// siblings of its hs2.execute span. The engine runs parse, parameterize and
// bind on every statement and analyze and optimize on a plan-cache miss.
func replayCompile(tr *Tracer, op int64, srv *hs2.Server, text string) {
	var st sql.Statement
	var err error
	tr.span(op, "replay.sql.parse", func() { st, err = sql.Parse(text) })
	sel, ok := st.(*sql.SelectStmt)
	if err != nil || !ok {
		return
	}
	var norm *sql.SelectStmt
	var args []types.Datum
	tr.span(op, "replay.sql.parameterize", func() { norm, args, _ = sql.Parameterize(sel) })
	var rel plan.Rel
	tr.span(op, "replay.analyze.select", func() { rel, err = analyze.New(srv.MS, "default").AnalyzeSelect(norm) })
	if err != nil {
		return // analyzes only with concrete literals; the engine falls back too
	}
	tr.span(op, "replay.opt.optimize", func() { rel = opt.New(srv.MS, opt.AllOn()).Optimize(rel) })
	tr.span(op, "replay.plan.bind", func() { _, _ = plan.BindParams(rel, args) })
}

// layerEnv is what the drivers share.
type layerEnv struct {
	r   *run
	tr  *Tracer
	srv *hs2.Server
	// table is the workload's main table; locs are its data directories.
	table *metastore.Table
	locs  []string
	// values collects metrics a driver computes itself (rates, counts).
	values map[string]float64
	rng    *rand.Rand
}

// repeat times fn n times as root spans of one name.
func (e *layerEnv) repeat(name string, n int, fn func()) {
	for i := 0; i < n; i++ {
		e.tr.span(0, name, fn)
	}
	e.r.wd.tick()
}

// perRow times fn n times and stores the median time per row in ns.
func (e *layerEnv) perRow(metric, span string, n int, rows int, fn func()) {
	var ns []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		e.tr.span(0, span, fn)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(rows))
	}
	e.values[metric] = median(ns)
	e.r.wd.tick()
}

func (r *run) mainTable() (*metastore.Table, []string, error) {
	t, err := r.wh.Server().MS.GetTable("default", r.def.table)
	if err != nil {
		return nil, nil, err
	}
	locs := []string{t.Location}
	if len(t.PartKeys) > 0 {
		locs = nil
		for _, p := range r.wh.Server().MS.PartitionsOf(t) {
			locs = append(locs, p.Location)
		}
	}
	return t, locs, nil
}

func orcColumns(t *metastore.Table) []orc.Column {
	cols := make([]orc.Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = orc.Column{Name: c.Name, Type: c.Type}
	}
	return cols
}

// runLayerDrivers runs every driver and returns the values they computed.
func runLayerDrivers(r *run, tr *Tracer, reps int) (map[string]float64, error) {
	t, locs, err := r.mainTable()
	if err != nil {
		return nil, err
	}
	e := &layerEnv{r: r, tr: tr, srv: r.wh.Server(), table: t, locs: locs, values: map[string]float64{}, rng: rand.New(rand.NewSource(r.opt.seed))}
	for _, d := range []func(*layerEnv, int) error{driveCaches, driveWM, driveTxn, driveAcid, driveOrcLlap, driveDFS, driveVector, driveExec, driveSpill} {
		if err := d(e, reps); err != nil {
			return nil, err
		}
	}
	return e.values, nil
}

// driveCaches times a plan-cache Get, a result-cache Lookup hit and a
// metastore GetTable.
func driveCaches(e *layerEnv, reps int) error {
	// A key of the benchmark's own, in a database no session uses, so the
	// timed Get is a hit and no query can be handed the empty template.
	key := plancache.Key{DB: "benchmark", Digest: "probe", Schema: e.srv.MS.SchemaVersion()}
	e.srv.Plans.Put(key, &plancache.Entry{})
	e.repeat("driver.plancache.get", reps*100, func() { e.srv.Plans.Get(key) })

	const probe = "benchmark|probe"
	snap := resultcache.Snapshot{"benchmark.probe": 1}
	if _, _, out := e.srv.Results.Lookup(probe, snap); out == resultcache.MissFill {
		e.srv.Results.Fill(probe, []string{"c"}, [][]types.Datum{{types.NewBigint(1)}}, snap)
	}
	e.repeat("driver.resultcache.lookup", reps*100, func() { e.srv.Results.Lookup(probe, snap) })

	e.repeat("driver.metastore.get_table", reps*100, func() { _, _ = e.srv.MS.GetTable("default", e.table.Name) })
	return nil
}

// driveWM times an Admit + Release round trip on the active resource plan.
// Workloads that run without one activate serve_point's plan first; their
// measured phases are over by now.
func driveWM(e *layerEnv, reps int) error {
	mgr := e.srv.WorkloadManager()
	if mgr == nil {
		s := e.r.wh.Session()
		defer s.Close()
		for _, q := range servePoint.afterLoad {
			if _, err := s.Exec(q); err != nil {
				return fmt.Errorf("activate resource plan: %w", err)
			}
		}
		mgr = e.srv.WorkloadManager()
	}
	var err error
	e.repeat("driver.wm.admit", reps*100, func() {
		var adm *wm.Admission
		if adm, err = mgr.Admit(context.Background(), servePool, wm.AdmitRequest{Digest: "benchmark"}); err == nil {
			adm.Release()
		}
	})
	return err
}

// driveTxn times opening a read snapshot and a whole empty write
// transaction, on a table name of its own so that no real table's write ids
// move.
func driveTxn(e *layerEnv, reps int) error {
	tm := e.srv.MS.Txns()
	e.repeat("driver.txn.snapshot", reps*100, func() {
		tm.GetValidWriteIds(e.table.FullName(), tm.GetSnapshot())
	})
	var err error
	e.repeat("driver.txn.commit", reps*100, func() {
		id := tm.Begin()
		if _, err = tm.AllocateWriteId(id, "benchmark.txn_probe"); err == nil {
			err = tm.Commit(id)
		}
	})
	return err
}

// driveAcid times opening a snapshot of each data directory, a scan of the
// whole table and an insert of fresh rows.
func driveAcid(e *layerEnv, reps int) error {
	cols := orcColumns(e.table)
	tm := e.srv.MS.Txns()
	valid := tm.GetValidWriteIds(e.table.FullName(), tm.GetSnapshot())
	opts := acid.SnapshotOpts{Readers: e.srv.MetaCache}

	var snaps []*acid.Snapshot
	var deletes, deltaDirs []float64
	var err error
	for i := 0; i < reps; i++ {
		snaps = snaps[:0]
		for _, loc := range e.locs {
			var s *acid.Snapshot
			e.tr.span(0, "driver.acid.open_snapshot", func() { s, err = acid.OpenSnapshotWith(e.srv.FS, loc, cols, valid, opts) })
			if err != nil {
				return err
			}
			snaps = append(snaps, s)
		}
	}
	for i, s := range snaps {
		deletes = append(deletes, float64(s.DeleteCount()))
		_, deltas, dels, err := acid.ListStores(e.srv.FS, e.locs[i])
		if err != nil {
			return err
		}
		deltaDirs = append(deltaDirs, float64(len(deltas)+len(dels)))
	}
	// acid_mixed replaces both with what its reads saw mid-cycle.
	e.values["acid.delete_set_rows"] = sum(deletes)
	e.values["acid.delta_dirs_at_read"] = median(deltaDirs)
	e.r.wd.tick()

	var scanNS []float64
	for i := 0; i < reps; i++ {
		rows := 0
		t0 := time.Now()
		e.tr.span(0, "driver.acid.scan", func() {
			for _, s := range snaps {
				if err == nil {
					err = s.Scan(nil, nil, func(b *vector.Batch) error { rows += b.N; return nil })
				}
			}
		})
		if err != nil {
			return err
		}
		scanNS = append(scanNS, ratio(float64(time.Since(t0).Nanoseconds()), float64(rows)))
	}
	e.values["acid.scan_ns_per_row"] = median(scanNS)
	e.r.wd.tick()

	const insertRows = 4096
	row := make([]types.Datum, len(cols))
	for c, col := range cols {
		row[c], err = types.Cast(types.NewBigint(int64(c+1)), col.Type)
		if err != nil {
			row[c] = types.NewString("benchmark")
		}
	}
	seq := int64(0)
	e.perRow("acid.insert_ns_per_row", "driver.acid.insert", reps, insertRows, func() {
		seq++
		w := acid.NewInsertWriter(e.srv.FS, fmt.Sprintf("%s/acid_insert_%d", scratchRoot, seq), seq, 0, cols, orc.WriterOptions{})
		for i := 0; i < insertRows && err == nil; i++ {
			err = w.WriteRow(row)
		}
		if err == nil {
			err = w.Close()
		}
	})
	return err
}

// tableStripes counts the stripes of the main table's data files, the base
// of orc.stripes_skipped_ratio. The count is kept for the tables that do
// not change while the workload runs.
func (r *run) tableStripes() int64 {
	if r.stripes > 0 && r.ds.acid == nil {
		return r.stripes
	}
	t, _, err := r.mainTable()
	if err != nil {
		return 0
	}
	srv := r.wh.Server()
	files, err := srv.FS.ListRecursive(t.Location)
	if err != nil {
		return 0
	}
	r.stripes = 0
	for _, f := range files {
		if strings.Contains(f.Path, "/delete_delta_") {
			continue
		}
		if rd, err := srv.MetaCache.Reader(srv.FS, f.Path); err == nil {
			r.stripes += int64(rd.NumStripes())
		}
	}
	return r.stripes
}

// compactAll compacts every data directory of the main table: minor, then
// major and Clean. It returns the time inside them, summed over the
// directories: a partition of the hot scale compacts in under 2 ms, too
// little to be steady on its own.
func compactAll(r *run, tr *Tracer) (time.Duration, error) {
	t, locs, err := r.mainTable()
	if err != nil {
		return 0, err
	}
	runtime.GC() // start from a collected heap, like every timed phase
	var spent time.Duration
	for _, loc := range locs {
		for _, major := range []bool{false, true} {
			d, err := compact(r.wh, t, loc, major, tr)
			if err != nil {
				return 0, err
			}
			spent += d
		}
		r.wd.tick()
	}
	return spent, nil
}

// orcDriverRows is the size of the file driveOrcLlap writes: 8 stripes.
const orcDriverRows = 8 * 8192

// driveOrcLlap writes one file with a column of each encoding, opens it,
// decodes each column stripe by stripe, and times a chunk-cache hit on it.
func driveOrcLlap(e *layerEnv, reps int) error {
	schema := []orc.Column{
		{Name: "i", Type: types.TBigint},
		{Name: "d", Type: types.TDecimal(7, 2)},
		{Name: "s_dict", Type: types.TString},
		{Name: "s_direct", Type: types.TString},
	}
	metrics := []string{"orc.decode_int_ns_per_value", "orc.decode_decimal_ns_per_value", "orc.decode_string_dict_ns_per_value", "orc.decode_string_direct_ns_per_value"}
	rows := make([][]types.Datum, orcDriverRows)
	for i := range rows {
		rows[i] = []types.Datum{
			types.NewBigint(e.rng.Int63n(1 << 40)),
			types.NewDecimal(e.rng.Int63n(1000000), 2),
			types.NewString(categories[e.rng.Intn(len(categories))]),
			types.NewString(fmt.Sprintf("v%012d", e.rng.Int63n(1<<40))),
		}
	}
	path := scratchRoot + "/orc_driver/file_00000"
	var err error
	seq := 0
	e.perRow("orc.write_ns_per_value", "driver.orc.write", reps, orcDriverRows*len(schema), func() {
		seq++
		p := path
		if seq > 1 {
			p = fmt.Sprintf("%s_%d", path, seq)
		}
		w := orc.NewWriter(e.srv.FS, p, schema, orc.WriterOptions{})
		for _, row := range rows {
			if err == nil {
				err = w.WriteRow(row)
			}
		}
		if err == nil {
			err = w.Close()
		}
	})
	if err != nil {
		return err
	}

	var rd *orc.Reader
	e.repeat("driver.orc.open_reader", reps*10, func() { rd, err = orc.NewReader(e.srv.FS, path) })
	if err != nil {
		return err
	}
	for c, metric := range metrics {
		proj := []int{c}
		e.perRow(metric, "driver.orc.read_stripe", reps, orcDriverRows, func() {
			for s := 0; s < rd.NumStripes() && err == nil; s++ {
				_, err = rd.ReadStripe(s, proj)
			}
		})
		if err != nil {
			return err
		}
	}

	// One column chunk of stripe 0, read through the server's chunk cache:
	// the first read fills it, the timed ones hit.
	info := rd.Stripe(0)
	cm := info.Columns[0]
	read := func() { _, err = e.srv.Cache.ReadChunk(path, rd.FileID(), 0, 0, info.Offset+cm.Offset, cm.Length) }
	read()
	e.repeat("driver.llap.read_chunk", reps*100, read)
	return err
}

// driveDFS times a recursive listing of the main table's directory, what
// every scan of every query does before it reads a byte.
func driveDFS(e *layerEnv, reps int) error {
	var err error
	e.repeat("driver.dfs.list", reps*10, func() { _, err = e.srv.FS.ListRecursive(e.table.Location) })
	return err
}

// driveVector times the column kernels over 1 024-row vectors of an
// integer, a decimal, a double and a string column, and reports the mean
// over the four types per row.
func driveVector(e *layerEnv, reps int) error {
	const n = vector.BatchSize
	ts := []types.T{types.TBigint, types.TDecimal(7, 2), types.TDouble, types.TString}
	src := vector.NewBatch(ts, n)
	for i := 0; i < n; i++ {
		src.Cols[0].Set(i, types.NewBigint(e.rng.Int63n(1<<30)))
		src.Cols[1].Set(i, types.NewDecimal(e.rng.Int63n(1000000), 2))
		src.Cols[2].Set(i, types.NewDouble(e.rng.Float64()))
		src.Cols[3].Set(i, types.NewString(fmt.Sprintf("s%06d", e.rng.Intn(5000))))
	}
	src.N = n
	const inner = 64 // kernels per span: one call is too short to time
	hashes := make([]uint64, n)
	e.perRow("vector.hash_into_ns_per_row", "driver.vector.hash_into", reps*10, inner*n*len(ts), func() {
		for k := 0; k < inner; k++ {
			for _, col := range src.Cols {
				col.HashInto(nil, n, hashes)
			}
		}
	})
	dst := vector.NewBatch(ts, n)
	e.perRow("vector.copy_rows_ns_per_row", "driver.vector.copy_rows", reps*10, inner*n*len(ts), func() {
		for k := 0; k < inner; k++ {
			for c, col := range src.Cols {
				dst.Cols[c].CopyRows(0, col, 0, n)
			}
		}
	})
	probes := make([]types.Datum, len(ts))
	for c, col := range src.Cols {
		probes[c] = col.Get(n / 2)
	}
	matches := 0
	e.perRow("vector.eq_datum_ns", "driver.vector.eq_datum", reps*10, inner*n*len(ts), func() {
		for k := 0; k < inner; k++ {
			for c, col := range src.Cols {
				for i := 0; i < n; i++ {
					if col.EqDatum(i, probes[c]) {
						matches++
					}
				}
			}
		}
	})
	if matches == 0 {
		return fmt.Errorf("vector.EqDatum matched nothing, including the row the probe was read from")
	}
	// Compact rewrites its batch in place, so each call gets a fresh copy
	// with every other row selected; the copy is outside the timed span.
	sel := make([]int, n/2)
	for i := range sel {
		sel[i] = 2 * i
	}
	var ns []float64
	for i := 0; i < reps*10*inner; i++ {
		for c, col := range src.Cols {
			dst.Cols[c].CopyRows(0, col, 0, n)
		}
		dst.Sel, dst.N = sel, len(sel)
		t0 := time.Now()
		e.tr.span(0, "driver.vector.batch_compact", dst.Compact)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(len(sel)*len(ts)))
	}
	e.values["vector.batch_compact_ns_per_row"] = median(ns)
	e.r.wd.tick()
	return nil
}

// memSource is the benchmark's own exec.Operator: generated rows held as
// batches in memory, so the operators above it are timed without storage.
type memSource struct {
	ts      []types.T
	batches []*vector.Batch
	next    int
}

func (m *memSource) Types() []types.T { return m.ts }
func (m *memSource) Open() error      { m.next = 0; return nil }
func (m *memSource) Close() error     { return nil }

// Next hands out a copy of the batch header: operators set selection
// vectors on the batches they receive, and the columns are shared.
func (m *memSource) Next() (*vector.Batch, error) {
	if m.next >= len(m.batches) {
		return nil, nil
	}
	b := *m.batches[m.next]
	m.next++
	return &b, nil
}

// execRows is the size of the operator drivers' input: the fact-table size
// of the full scale, and a tenth of it for the smoke run.
func (e *layerEnv) execRows() int {
	if e.r.opt.smoke {
		return 20000
	}
	return 200000
}

// factSource generates rows shaped like store_sales: (ticket BIGINT unique,
// item BIGINT skewed, customer BIGINT, quantity INT, price DECIMAL(7,2)).
func factSource(rng *rand.Rand, rows int) *memSource {
	ts := []types.T{types.TBigint, types.TBigint, types.TBigint, types.TInt, types.TDecimal(7, 2)}
	m := &memSource{ts: ts}
	for start := 0; start < rows; start += vector.BatchSize {
		n := min(vector.BatchSize, rows-start)
		b := vector.NewBatch(ts, n)
		for i := 0; i < n; i++ {
			b.Cols[0].I64[i] = int64(start + i + 1)
			b.Cols[1].I64[i] = int64(1 + skewed(rng, 2000))
			b.Cols[2].I64[i] = int64(1 + rng.Intn(8000))
			b.Cols[3].I64[i] = int64(1 + rng.Intn(10))
			b.Cols[4].I64[i] = int64(1 + rng.Intn(9999))
		}
		b.N = n
		m.batches = append(m.batches, b)
	}
	return m
}

// halves splits a source's batches between two sources, for DOP 2.
func (m *memSource) halves() []exec.Operator {
	a, b := &memSource{ts: m.ts}, &memSource{ts: m.ts}
	for i, batch := range m.batches {
		if i%2 == 0 {
			a.batches = append(a.batches, batch)
		} else {
			b.batches = append(b.batches, batch)
		}
	}
	return []exec.Operator{a, b}
}

func col(m *memSource, i int) *plan.ColRef { return &plan.ColRef{Idx: i, T: m.ts[i]} }

// driveExec feeds the exported operator structs from a memSource, at DOP 1
// and, where the operator has a parallel form, at DOP 2.
func driveExec(e *layerEnv, reps int) error {
	execRows := e.execRows()
	src := factSource(e.rng, execRows)
	var err error
	var out int
	drain := func(op exec.Operator) {
		var rows [][]types.Datum
		if rows, err = exec.DrainContext(exec.NewContext(), op); err == nil {
			out = len(rows)
		}
	}
	// count pulls batches without boxing rows, so that an operator's time
	// is not mixed with the cost of materializing its output.
	count := func(op exec.Operator) {
		out = 0
		if err = op.Open(); err != nil {
			return
		}
		for {
			var b *vector.Batch
			if b, err = op.Next(); err != nil || b == nil {
				break
			}
			out += b.N
		}
		if cerr := op.Close(); err == nil {
			err = cerr
		}
	}

	pred, err := exec.Compile(&plan.Func{Op: "<=", Args: []plan.Rex{col(src, 3), plan.NewLiteral(types.NewInt(5))}, T: types.TBool}, src.ts)
	if err != nil {
		return err
	}
	filter := func(in exec.Operator) exec.Operator { return &exec.FilterOp{Input: in, Pred: pred} }
	e.perRow("exec.filter_ns_per_row", "driver.exec.filter", reps, execRows, func() { count(filter(src)) })
	if err != nil || out == 0 || out == execRows {
		return fmt.Errorf("exec filter driver: %d rows out, err %v", out, err)
	}
	e.perRow("exec.filter_dop2_ns_per_row", "driver.exec.filter_dop2", reps, execRows, func() {
		h := src.halves()
		count(&exec.ParallelOp{Workers: []exec.Operator{filter(h[0]), filter(h[1])}, Ctx: exec.NewContext()})
	})

	group, err := exec.Compile(col(src, 1), src.ts)
	if err != nil {
		return err
	}
	aggs, err := exec.CompileAggs([]plan.AggCall{{Fn: "count", T: types.TBigint}, {Fn: "sum", Arg: col(src, 4), T: types.TDecimal(17, 2)}}, src.ts)
	if err != nil {
		return err
	}
	aggOut := []types.T{types.TBigint, types.TBigint, types.TDecimal(17, 2)}
	e.perRow("exec.hash_agg_ns_per_row", "driver.exec.hash_agg", reps, execRows, func() {
		count(&exec.HashAggOp{Input: src, GroupExprs: []*exec.CompiledExpr{group}, Aggs: aggs, Out: aggOut, Ctx: exec.NewContext()})
	})
	if err != nil || out == 0 {
		return fmt.Errorf("exec hash-agg driver: %d groups, err %v", out, err)
	}
	e.perRow("exec.hash_agg_dop2_ns_per_row", "driver.exec.hash_agg_dop2", reps, execRows, func() {
		count(&exec.ParallelHashAggOp{Workers: src.halves(), GroupExprs: []*exec.CompiledExpr{group}, Aggs: aggs, Out: aggOut, Ctx: exec.NewContext()})
	})

	// Join: the build side is every row keyed by its unique ticket. Building
	// with an empty probe side times the build alone; the full self-join
	// minus that is the probe.
	key, err := exec.Compile(col(src, 0), src.ts)
	if err != nil {
		return err
	}
	join := func(probe exec.Operator) exec.Operator {
		build := &memSource{ts: src.ts, batches: src.batches}
		return &exec.HashJoinOp{Left: probe, Right: build, Kind: plan.Inner, LeftKeys: []*exec.CompiledExpr{key}, RightKeys: []*exec.CompiledExpr{key}, Ctx: exec.NewContext()}
	}
	e.perRow("exec.join_build_ns_per_row", "driver.exec.join_build", reps, execRows, func() { count(join(&memSource{ts: src.ts})) })
	build := e.values["exec.join_build_ns_per_row"]
	e.perRow("exec.join_probe_ns_per_row", "driver.exec.join", reps, execRows, func() { count(join(src)) })
	if err != nil || out != execRows {
		return fmt.Errorf("exec join driver: %d rows out, want %d, err %v", out, execRows, err)
	}
	e.values["exec.join_probe_ns_per_row"] = max(0, e.values["exec.join_probe_ns_per_row"]-build)

	keys := []plan.SortKey{{Col: 4, Desc: true}, {Col: 0}}
	sortOf := func(in exec.Operator) exec.Operator {
		return &exec.SortOp{Input: in, Keys: keys, Ctx: exec.NewContext()}
	}
	e.perRow("exec.sort_ns_per_row", "driver.exec.sort", reps, execRows, func() { count(sortOf(src)) })
	e.perRow("exec.sort_dop2_ns_per_row", "driver.exec.sort_dop2", reps, execRows, func() {
		h := src.halves()
		count(&exec.MergeOp{Workers: []exec.Operator{sortOf(h[0]), sortOf(h[1])}, Keys: keys, Ctx: exec.NewContext()})
	})
	if err != nil || out != execRows {
		return fmt.Errorf("exec sort driver: %d rows out, want %d, err %v", out, execRows, err)
	}
	e.perRow("exec.topn_ns_per_row", "driver.exec.topn", reps, execRows, func() {
		count(&exec.TopNOp{Input: src, Keys: keys, N: 100, Ctx: exec.NewContext()})
	})
	e.perRow("exec.topn_dop2_ns_per_row", "driver.exec.topn_dop2", reps, execRows, func() {
		count(&exec.ParallelTopNOp{Workers: src.halves(), Keys: keys, N: 100, Ctx: exec.NewContext()})
	})
	if err != nil || out != 100 {
		return fmt.Errorf("exec top-n driver: %d rows out, want 100, err %v", out, err)
	}

	window := &exec.WindowOp{Input: src, Ctx: exec.NewContext(),
		Fns: []plan.WindowFn{{Fn: "rank", PartitionBy: []int{2}, OrderBy: keys, T: types.TBigint}},
		Out: append(append([]types.T(nil), src.ts...), types.TBigint)}
	e.perRow("exec.window_ns_per_row", "driver.exec.window", reps, execRows, func() { count(window) })
	if err != nil || out != execRows {
		return fmt.Errorf("exec window driver: %d rows out, want %d, err %v", out, execRows, err)
	}

	e.perRow("exec.drain_box_ns_per_row", "driver.exec.drain_box", reps, execRows, func() { drain(src) })
	if err != nil || out != execRows {
		return fmt.Errorf("exec drain driver: %d rows out, want %d, err %v", out, execRows, err)
	}
	return nil
}

// driveSpill round-trips the rows a sort would spill through the spill
// codec and reports its throughput in decoded megabytes per second.
func driveSpill(e *layerEnv, reps int) error {
	rows, err := exec.Drain(factSource(e.rng, e.execRows()/4))
	if err != nil {
		return err
	}
	fs := e.srv.FS
	var encode, decode []float64
	for i := 0; i < reps; i++ {
		path := fmt.Sprintf("%s/spill_%d", scratchRoot, i)
		var bytes int64
		t0 := time.Now()
		e.tr.span(0, "driver.spill.encode", func() {
			w := spill.NewWriter(fs, path)
			for start := 0; start < len(rows); start += vector.BatchSize {
				w.Append(rows[start:min(start+vector.BatchSize, len(rows))])
			}
			bytes, err = w.Close()
		})
		if err != nil {
			return err
		}
		encode = append(encode, float64(bytes)/1e6/time.Since(t0).Seconds())
		got := 0
		t0 = time.Now()
		e.tr.span(0, "driver.spill.decode", func() { got, err = readSpill(fs, path) })
		if err != nil {
			return err
		}
		if got != len(rows) {
			return fmt.Errorf("spill round trip: read %d rows, wrote %d", got, len(rows))
		}
		decode = append(decode, float64(bytes)/1e6/time.Since(t0).Seconds())
		e.r.wd.tick()
	}
	e.values["spill.encode_mb_s"] = median(encode)
	e.values["spill.decode_mb_s"] = median(decode)
	return nil
}

func readSpill(fs *dfs.FS, path string) (int, error) {
	rd, err := spill.OpenReader(fs, path)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		chunk, err := rd.Next()
		if err != nil {
			return n, err
		}
		if chunk == nil {
			return n, nil
		}
		n += len(chunk)
	}
}
