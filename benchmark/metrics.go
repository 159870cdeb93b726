package main

// metricDef names one metric and its unit. BENCHMARK.json repeats both, with
// the direction and, for end-to-end metrics, the bound; TestBenchmarkJSON
// keeps the file and these lists in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the warehouse sees. Every workload reports
// every one; README.md says what each means on each workload. fail_ratio is
// printed with them but is not in BENCHMARK.json, whose metrics may never
// be 0: failures reach the driver as `failed` and `correct`.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_rows_per_s", "1/s"},
	{"compaction_s", "s"},
	{"stored_bytes_per_row", "B"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is what the traced run reports, one module prefix per layer.
var perLayer = []metricDef{
	{"sql.parse_us", "us"}, {"sql.parameterize_us", "us"}, {"analyze.select_us", "us"}, {"opt.optimize_us", "us"}, {"plan.bind_us", "us"},
	{"plancache.get_ns", "ns"}, {"plancache.hit_ratio", "ratio"}, {"resultcache.lookup_ns", "ns"}, {"resultcache.hit_ratio", "ratio"}, {"metastore.get_table_ns", "ns"},
	{"hs2.execute_us", "us"}, {"hs2.compile_us", "us"}, {"hs2.run_us", "us"},
	{"wm.admit_us", "us"}, {"wm.queued_ratio", "ratio"},
	{"txn.snapshot_ns", "ns"}, {"txn.commit_us", "us"},
	{"acid.open_snapshot_us", "us"}, {"acid.delete_set_rows", "count"}, {"acid.scan_ns_per_row", "ns"}, {"acid.insert_ns_per_row", "ns"},
	{"acid.compact_minor_ms", "ms"}, {"acid.compact_major_ms", "ms"}, {"acid.compact_bytes_rewritten", "B"}, {"acid.delta_dirs_at_read", "count"},
	{"orc.decode_int_ns_per_value", "ns"}, {"orc.decode_decimal_ns_per_value", "ns"}, {"orc.decode_string_dict_ns_per_value", "ns"}, {"orc.decode_string_direct_ns_per_value", "ns"},
	{"orc.write_ns_per_value", "ns"}, {"orc.stripes_skipped_ratio", "ratio"}, {"orc.open_reader_us", "us"},
	{"llap.chunk_hit_ratio", "ratio"}, {"llap.chunk_evictions", "count"}, {"llap.decoded_hit_ratio", "ratio"}, {"llap.decoded_evictions", "count"}, {"llap.meta_hit_ratio", "ratio"},
	{"llap.elevator_decoded", "count"}, {"llap.elevator_dropped", "count"}, {"llap.elevator_coalesced", "count"}, {"llap.read_chunk_ns", "ns"},
	{"dfs.read_ops_per_op", "count"}, {"dfs.bytes_read_per_op", "B"}, {"dfs.write_ops_per_op", "count"}, {"dfs.list_us", "us"},
	{"vector.hash_into_ns_per_row", "ns"}, {"vector.copy_rows_ns_per_row", "ns"}, {"vector.eq_datum_ns", "ns"}, {"vector.batch_compact_ns_per_row", "ns"},
	{"exec.filter_ns_per_row", "ns"}, {"exec.hash_agg_ns_per_row", "ns"}, {"exec.join_build_ns_per_row", "ns"}, {"exec.join_probe_ns_per_row", "ns"},
	{"exec.sort_ns_per_row", "ns"}, {"exec.topn_ns_per_row", "ns"}, {"exec.window_ns_per_row", "ns"}, {"exec.drain_box_ns_per_row", "ns"},
	{"exec.filter_dop2_ns_per_row", "ns"}, {"exec.hash_agg_dop2_ns_per_row", "ns"}, {"exec.sort_dop2_ns_per_row", "ns"}, {"exec.topn_dop2_ns_per_row", "ns"},
	{"exec.peak_bytes", "B"}, {"exec.spilled_bytes", "B"},
	{"spill.encode_mb_s", "MB/s"}, {"spill.decode_mb_s", "MB/s"}, {"spill.files_per_query", "count"}, {"spill.bytes_per_query", "B"},
	{"go.gc_cycles_per_op", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndMetrics derives the thirteen end-to-end metrics from one
// workload's untraced timed phase, and the sample counts behind them. Where
// the timed phase does not write, the write metrics come from the set-up's
// INSERTs.
func endToEndMetrics(r *run, s *samples, storedBytes, liveRows int64) (map[string]float64, map[string]int) {
	reads := s.reads()
	ops := float64(s.attempted)
	writeLat, writeRows, writeTime := s.writes(), s.writeRows, s.writeTime
	if len(writeLat) == 0 {
		writeLat, writeRows, writeTime = r.loadLat, r.loadRows, r.loadTime
	}
	storedPerRow := ratio(float64(storedBytes), float64(liveRows))
	if len(s.storedPerRow) > 0 {
		storedPerRow = median(s.storedPerRow)
	}
	// A pass holds a few dozen statements of very different cost, and the
	// median of their latencies is whichever two fall in the middle: it
	// moves by 5 % with the seed. The typical pass is steady.
	p50 := median(reads)
	if len(s.passMeanMS) > 0 {
		p50 = median(s.passMeanMS)
	}
	vals := map[string]float64{
		"setup_s":              median(r.setupS),
		"pass_s":               s.passSeconds(),
		"qps":                  ratio(ops, s.wall.Seconds()),
		"latency_p50_ms":       p50,
		"latency_p99_ms":       percentile(reads, 0.99),
		"write_p50_ms":         median(writeLat),
		"write_rows_per_s":     ratio(float64(writeRows), writeTime.Seconds()),
		"compaction_s":         median(s.compaction),
		"stored_bytes_per_row": storedPerRow,
		"cpu_ms_per_op":        ratio(ms(s.res.cpu), ops),
		"allocs_per_op":        ratio(float64(s.res.mallocs), ops),
		"alloc_kb_per_op":      ratio(float64(s.res.allocBytes)/1024, ops),
		"peak_rss_mb":          peakRSSMiB(),
	}
	counts := map[string]int{"statements": s.attempted, "reads": len(reads), "writes": len(writeLat), "compactions": len(s.compaction)}
	return vals, counts
}

// perLayerMetrics derives the per-layer metrics from the traced phase's
// spans, the counter deltas over it, and the values the drivers computed.
func perLayerMetrics(tr *Tracer, traced, base *samples, cd map[string]int64, vals map[string]float64) map[string]float64 {
	total, self := tr.durations()
	med := func(m map[string][]float64, span string, div float64) float64 { return median(m[span]) / div }
	c := func(name string) float64 { return float64(cd[name]) }
	hit := func(prefix string) float64 { return ratio(c(prefix+"hits"), c(prefix+"hits")+c(prefix+"misses")) }
	ops := float64(traced.attempted)
	reads := float64(len(traced.reads()))

	out := map[string]float64{
		"sql.parse_us":              med(total, "replay.sql.parse", 1e3),
		"sql.parameterize_us":       med(total, "replay.sql.parameterize", 1e3),
		"analyze.select_us":         med(total, "replay.analyze.select", 1e3),
		"opt.optimize_us":           med(total, "replay.opt.optimize", 1e3),
		"plan.bind_us":              med(total, "replay.plan.bind", 1e3),
		"plancache.get_ns":          med(total, "driver.plancache.get", 1),
		"plancache.hit_ratio":       hit("plancache."),
		"resultcache.lookup_ns":     med(total, "driver.resultcache.lookup", 1),
		"resultcache.hit_ratio":     hit("resultcache."),
		"metastore.get_table_ns":    med(total, "driver.metastore.get_table", 1),
		"hs2.execute_us":            med(total, "hs2.execute", 1e3),
		"hs2.compile_us":            med(total, "hs2.compile", 1e3),
		"hs2.run_us":                med(self, "hs2.execute", 1e3),
		"wm.admit_us":               med(total, "driver.wm.admit", 1e3),
		"wm.queued_ratio":           ratio(float64(traced.queuedSeen), ops),
		"txn.snapshot_ns":           med(total, "driver.txn.snapshot", 1),
		"txn.commit_us":             med(total, "driver.txn.commit", 1e3),
		"acid.open_snapshot_us":     med(total, "driver.acid.open_snapshot", 1e3),
		"acid.compact_minor_ms":     med(total, "driver.acid.compact_minor", 1e6),
		"acid.compact_major_ms":     med(total, "driver.acid.compact_major", 1e6),
		"orc.open_reader_us":        med(total, "driver.orc.open_reader", 1e3),
		"orc.stripes_skipped_ratio": ratio(float64(traced.stripesSkipped), float64(traced.stripesSeen)),
		"llap.chunk_hit_ratio":      hit("llap.chunk_"),
		"llap.chunk_evictions":      c("llap.chunk_evictions"),
		"llap.decoded_hit_ratio":    hit("llap.decoded_"),
		"llap.decoded_evictions":    c("llap.decoded_evictions"),
		"llap.meta_hit_ratio":       hit("llap.meta_"),
		"llap.elevator_decoded":     c("llap.elevator_decoded"),
		"llap.elevator_dropped":     c("llap.elevator_dropped"),
		"llap.elevator_coalesced":   c("llap.elevator_coalesced"),
		"llap.read_chunk_ns":        med(total, "driver.llap.read_chunk", 1),
		"dfs.read_ops_per_op":       ratio(c("dfs.read_ops"), ops),
		"dfs.bytes_read_per_op":     ratio(c("dfs.bytes_read"), ops),
		"dfs.write_ops_per_op":      ratio(c("dfs.write_ops"), ops),
		"dfs.list_us":               med(total, "driver.dfs.list", 1e3),
		"exec.peak_bytes":           float64(traced.peakBytes),
		"exec.spilled_bytes":        float64(traced.spilledBytes),
		"spill.files_per_query":     ratio(float64(traced.spillFiles), reads),
		"spill.bytes_per_query":     ratio(float64(traced.spilledBytes), reads),
		"go.gc_cycles_per_op":       ratio(float64(traced.res.numGC), ops),
		"go.gc_pause_ms":            ms(traced.res.gcPause),
		"trace.overhead_ratio":      ratio(median(traced.execUS), median(base.execUS)),
	}
	for k, v := range vals {
		out[k] = v
	}
	return out
}
