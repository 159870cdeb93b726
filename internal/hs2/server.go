// Package hs2 implements HiveServer2: sessions, the driver pipeline of
// paper Figure 2 (parse → logical plan → optimize → physical plan → task
// DAG → runtime; pipeline.go), DML/DDL execution over the ACID layer, the
// plan and query results caches (§4.3), materialized view maintenance
// (§4.4), workload management (§5.2) and federation (§6).
//
// Configuration profiles reproduce the paper's version comparison: profile
// "1.2" disables the optimizations Hive 1.2 lacked and rejects the SQL
// constructs it did not support; profile "3.1" enables everything.
package hs2

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dfs"
	"repro/internal/federation"
	"repro/internal/llap"
	"repro/internal/metastore"
	"repro/internal/mv"
	"repro/internal/plancache"
	"repro/internal/resultcache"
	"repro/internal/types"
	"repro/internal/wm"
)

// Config sizes an embedded warehouse.
type Config struct {
	FS            *dfs.FS // nil = fresh in-memory DFS
	WarehouseRoot string  // default /warehouse
	Executors     int     // LLAP executor pool size; default 8
	CacheBytes    int64   // LLAP cache capacity; default 64 MiB
	// MemoryBytes is the aggregate memory budget workload-management
	// pools admit queries against (paper §4.4). 0 disables memory
	// admission: resource plans gate on executor slots only, as before.
	MemoryBytes int64
	// IOThreads sizes the LLAP I/O elevator's async decode pool
	// (hive.llap.io.threads); default 4.
	IOThreads int
	// DecodedCacheBytes caps the elevator's decoded-vector cache
	// (hive.llap.decoded.cache.bytes); default CacheBytes/2.
	DecodedCacheBytes int64
}

// Server is the embedded HiveServer2 plus its LLAP deployment.
type Server struct {
	MS        *metastore.Metastore
	FS        *dfs.FS
	Registry  *federation.Registry
	Cache     *llap.Cache
	MetaCache *llap.MetadataCache
	Decoded   *llap.DecodedCache
	Elevator  *llap.Elevator
	Daemons   *llap.Daemons
	Results   *resultcache.Cache
	Plans     *plancache.Cache

	mu          sync.Mutex
	wmgr        *wm.Manager
	memoryBytes int64
	ioThreads   int
	// defaults are the session defaults: written by NewServer, read-only
	// (and so lock-free) afterwards.
	defaults map[string]string
	// querySeq disambiguates per-query scratch directories across
	// concurrent sessions (a wall-clock tick alone can collide).
	querySeq atomic.Int64
}

// NewServer boots a warehouse.
func NewServer(cfg Config) *Server {
	if cfg.FS == nil {
		cfg.FS = dfs.New()
	}
	if cfg.WarehouseRoot == "" {
		cfg.WarehouseRoot = "/warehouse"
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 8
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.IOThreads <= 0 {
		cfg.IOThreads = 4
	}
	if cfg.DecodedCacheBytes <= 0 {
		cfg.DecodedCacheBytes = cfg.CacheBytes / 2
	}
	// Session defaults come from the knob registry (knobs.go); the two that
	// mirror Config fields are resolved from the effective Config here.
	defaults := defaultConf()
	defaults["hive.llap.io.threads"] = strconv.Itoa(cfg.IOThreads)
	defaults["hive.llap.decoded.cache.bytes"] = strconv.FormatInt(cfg.DecodedCacheBytes, 10)
	s := &Server{
		MS:        metastore.New(cfg.FS, cfg.WarehouseRoot),
		FS:        cfg.FS,
		Registry:  federation.NewRegistry(),
		Cache:     llap.NewCache(cfg.FS, cfg.CacheBytes),
		MetaCache: llap.NewMetadataCache(),
		Decoded:   llap.NewDecodedCache(cfg.DecodedCacheBytes),
		Elevator:  llap.NewElevator(cfg.IOThreads, cfg.DecodedCacheBytes),
		ioThreads: cfg.IOThreads,
		Daemons:   llap.NewDaemons(cfg.Executors),
		Results:   resultcache.New(256),
		Plans:     plancache.New(128),
		defaults:  defaults,
	}
	s.memoryBytes = cfg.MemoryBytes
	return s
}

// Close stops the server's background machinery (the I/O elevator's
// decode goroutines). Queries must have drained first.
func (s *Server) Close() {
	if s.Elevator != nil {
		s.Elevator.Close()
	}
}

// IOThreads reports the size of the I/O elevator's decode pool.
func (s *Server) IOThreads() int { return s.ioThreads }

// WorkloadManager returns the active workload manager, if a resource plan
// has been activated.
func (s *Server) WorkloadManager() *wm.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wmgr
}

// Session is one client connection with its own configuration overlay.
type Session struct {
	srv         *Server
	db          string
	conf        map[string]string
	ctx         context.Context
	cancel      context.CancelFunc
	User        string
	Application string
	// opts are the options of the statement being executed, resolved from
	// conf once by executeStmt; nothing below it reads the conf maps.
	opts queryOptions
	// prepared holds this session's PREPARE'd statements by name.
	prepared map[string]*preparedStmt
	// testHookAfterLookup, when set, runs between the result-cache lookup
	// and plan execution — test instrumentation for snapshot races.
	testHookAfterLookup func()
	// Observations describes the previous query. The pipeline fills its own
	// copy and publishes it here once, when the query exits — hit, miss or
	// error — so no field ever describes an older query than its neighbours.
	Observations
}

// Observations is what one query reports about itself (observability for
// tests, examples, monitoring and workload-management triggers). Fields a
// query never reached are zero: a result-cache hit has no physical plan
// and no memory or I/O counters.
type Observations struct {
	// LastRewriteUsedMV reports whether the query was answered from a
	// materialized view.
	LastRewriteUsedMV bool
	// LastCacheHit reports whether the query came from the results cache.
	LastCacheHit bool
	// LastPlanCacheHit reports whether the query reused a cached compiled
	// plan (skipping analysis and optimization).
	LastPlanCacheHit bool
	// LastQueryDigest is the digest the query is admitted and observed
	// under in workload management. On the parameterized path it is the
	// normalized digest, shared by all literal variants of a shape.
	LastQueryDigest string
	// LastCompileNanos measures the compile phase: parameterization plus
	// plan-cache lookup, plus analysis/optimization only on a plan-cache
	// miss. An EXECUTE that finds its template compiled nothing: zero.
	LastCompileNanos int64
	// LastPlan is the EXPLAIN rendering of the query's plan; empty for the
	// internal selects of DML and DDL statements.
	LastPlan string
	// LastPhysicalPlan is the prepared physical operator tree
	// (exec.ExplainPhysical): what actually ran, after property-driven
	// elision and parallel placement. Golden-explain tests assert which
	// enforcers survived.
	LastPhysicalPlan string
	// LastPeakMemoryBytes and LastSpilledBytes report the memory
	// governor's accounting.
	LastPeakMemoryBytes int64
	LastSpilledBytes    int64
	// LastDecodedCacheHits/Misses report decoded-vector cache
	// effectiveness (I/O elevator, paper §5.1); zero/zero when the elevator
	// is off or the scan never consulted the cache.
	LastDecodedCacheHits   int64
	LastDecodedCacheMisses int64
	// LastStripesSkipped counts data stripes the query's search arguments
	// pruned; LastDeleteStripesSkipped counts delete-delta stripes pruned
	// by the deleter write-id sarg while loading snapshots.
	LastStripesSkipped       int64
	LastDeleteStripesSkipped int64
	// LastPrefetchedStripes counts stripes handed to the I/O elevator
	// (accepted prefetches, i.e. prefetch-ahead depth summed over the scan).
	LastPrefetchedStripes int64
}

// NewSession opens a session in the default database.
func (s *Server) NewSession() *Session {
	ctx, cancel := context.WithCancel(context.Background())
	return &Session{srv: s, db: "default", conf: map[string]string{}, ctx: ctx, cancel: cancel}
}

// Close ends the session: a query queued for admission or executing on
// this session's behalf is canceled and releases its resources (client
// disconnects must not wedge a pool's admission queue).
func (s *Session) Close() {
	if s.cancel != nil {
		s.cancel()
	}
}

// Conf reads a configuration key (session overlay over server defaults,
// which are immutable once NewServer returns).
func (s *Session) Conf(key string) string {
	if v, ok := s.conf[key]; ok {
		return v
	}
	return s.srv.defaults[key]
}

func (s *Session) confBool(key string) bool {
	v := strings.ToLower(s.Conf(key))
	return v == "true" || v == "1"
}

func (s *Session) confInt(key string) int64 {
	n, _ := strconv.ParseInt(s.Conf(key), 10, 64)
	return n
}

// profile12 is what hive.profile = 1.2 overlays on a session — Hive 1.2:
// Tez containers without LLAP, no CBO join reordering, no shared work, no
// semijoin reduction, no result cache, no MVs. Profile 3.1 removes the
// same keys again.
var profile12 = map[string]string{
	"hive.execution.mode":              "container",
	"hive.llap.enabled":                "false",
	"hive.optimize.join.reorder":       "false",
	"hive.optimize.semijoin":           "false",
	"hive.optimize.sharedwork":         "false",
	"hive.materializedview.rewriting":  "false",
	"hive.query.results.cache.enabled": "false",
	"hive.query.plan.cache.enabled":    "false",
}

// SetConf sets a session configuration key.
func (s *Session) SetConf(key, value string) {
	key = strings.ToLower(key)
	s.conf[key] = value
	if key != "hive.profile" {
		return
	}
	for k, v := range profile12 {
		switch value {
		case "1.2":
			s.conf[k] = v
		case "3.1":
			delete(s.conf, k)
		}
	}
}

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    [][]types.Datum
}

// String renders the result as pipe-separated lines.
func (r *Result) String() string {
	var b strings.Builder
	for i, row := range r.Rows {
		if i > 0 {
			b.WriteByte('\n')
		}
		for j, d := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(d.String())
		}
	}
	return b.String()
}

// mvRewriter builds the rewriter bound to this session's analyzer.
func (s *Session) mvRewriter() *mv.Rewriter {
	return &mv.Rewriter{
		MS: s.srv.MS,
		AnalyzeView: func(viewSQL, db string) (p planRel, err error) {
			return s.analyzeSQL(viewSQL, db)
		},
	}
}
