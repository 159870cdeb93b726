package hs2

// A Knob describes one hive.* configuration key: its session default and
// whether the value is consumed at server construction rather than read
// per query.
type Knob struct {
	Default string
	Doc     string
	// Startup marks keys that mirror Config fields fixed at server start
	// (pool sizes, cache capacities). They appear in the conf map for
	// visibility, but setting them per-session has no effect.
	Startup bool
}

// knobRegistry is the single source of truth for the server's hive.*
// configuration surface. hivelint's conf-knob-registry analyzer enforces
// that every hive.* string literal in the tree appears here — a misspelled
// key in a confBool call would otherwise silently read an empty default —
// and that every declared key is actually read somewhere (dead knobs are
// findings; Startup keys are exempt).
//
// lint:knob-registry
var knobRegistry = map[string]Knob{
	"hive.profile": {
		Default: "3.1",
		Doc:     "emulated Hive version: 3.1 (LLAP, CBO, caches) or 1.2 (container mode, optimizations off)",
	},
	"hive.execution.mode": {
		Default: "llap",
		Doc:     "llap runs scans through the daemon cache/elevator path; container pays per-query launch cost",
	},
	"hive.llap.enabled": {
		Default: "true",
		Doc:     "gates the LLAP daemon read path (chunk cache, metadata cache, decoded-vector cache)",
	},
	"hive.optimize.join.reorder": {
		Default: "true",
		Doc:     "cost-based join reordering over the per-column NDV statistics",
	},
	"hive.optimize.semijoin": {
		Default: "true",
		Doc:     "semijoin reduction: broadcast build-side key filters into probe-side scans",
	},
	"hive.optimize.sharedwork": {
		Default: "true",
		Doc:     "shared-work optimizer: identical subtrees collapse into one spooled computation",
	},
	"hive.optimize.prunecols": {
		Default: "true",
		Doc:     "column pruning: scans read only the columns the plan above consumes",
	},
	"hive.materializedview.rewriting": {
		Default: "true",
		Doc:     "algebraic rewriting of queries onto fresh materialized views",
	},
	"hive.query.results.cache.enabled": {
		Default: "true",
		Doc:     "result cache keyed by plan digest and snapshot watermarks, invalidated by table writes",
	},
	"hive.query.plan.cache.enabled": {
		Default: "true",
		Doc: "compiled-plan reuse (paper §4.3 serving): literals hoist into parameters and the " +
			"optimized plan is cached per normalized digest, so repeats of a query shape — " +
			"ad-hoc or via PREPARE/EXECUTE — skip analysis and optimization entirely",
	},
	"hive.container.launch.ms": {
		Default: "3",
		Doc:     "simulated per-query container launch latency in container execution mode",
	},
	"hive.parallelism": {
		Default: "0",
		Doc: "intra-query DOP: LLAP fragments fan out over this many executor slots " +
			"(morsel-driven scans, two-phase aggregation, partitioned join builds); " +
			"0 means the machine's CPU count",
	},
	"hive.split.target.stripes": {
		Default: "1",
		Doc: "stripes per morsel when parallel plans split scans at ORC stripe granularity " +
			"(paper §5.1); 1 maximizes work-stealing balance, larger amortizes per-morsel overhead",
	},
	"hive.llap.elevator": {
		Default: "true",
		Doc: "LLAP I/O elevator (paper §5.1): scans publish upcoming sarg-surviving stripes to an " +
			"async decode pool that reads ahead of the consumer and caches decoded vectors; " +
			"false restores the fully synchronous read path, byte-identically",
	},
	"hive.llap.io.threads": {
		Default: "4",
		Doc:     "decode-pool width; fixed at server start (Config.IOThreads)",
		Startup: true,
	},
	"hive.llap.decoded.cache.bytes": {
		Default: "0",
		Doc:     "decoded-vector cache capacity, charged by decoded size; fixed at server start (Config.DecodedCacheBytes)",
		Startup: true,
	},
	"hive.planner.properties": {
		Default: "true",
		Doc: "property-driven physical planning (paper §4.1–4.2): carry delivered sort order and " +
			"partitioning, elide satisfied enforcers, place partition-wise aggs/joins on " +
			"co-partitioned scans; output is byte-identical either way",
	},
	"hive.query.max.memory": {
		Default: "0",
		Doc: "per-query byte budget for the blocking operators (sort, hash agg, join build, window, " +
			"spool); 0 is unlimited, a positive budget makes them spill against the governor",
	},
	"hive.query.timeout": {
		Default: "0",
		Doc: "per-query wall-clock deadline in milliseconds covering admission queueing and execution; " +
			"0 means none; a timed-out query releases its admission, reservations and scratch directory",
	},
	"hive.wm.queue.timeout.ms": {
		Default: "30000",
		Doc: "how long a query waits in a pool's admission queue before degrading (reduced DOP and " +
			"budget under memory pressure) or failing (concurrency cap exhausted)",
	},
}

// defaultConf materializes the registry defaults into a fresh conf map.
func defaultConf() map[string]string {
	m := make(map[string]string, len(knobRegistry))
	for k, kn := range knobRegistry {
		m[k] = kn.Default
	}
	return m
}
