GO ?= go

.PHONY: check build test vet race lint spill props serve elevator join window hammer bench

# check is the CI gate: vet, build, a -race short-test pass over every
# package (catches data races in the parallel scan/agg/join paths, the
# stripe-granular morsel sharing and the shared memory governor), the
# full suite, then the constrained-budget spill regressions — the spill
# path can never silently rot because check always executes it.
check: vet build lint race test spill props serve elevator join window

vet:
	$(GO) vet ./...

# lint builds and runs hivelint (cmd/hivelint), the repo-invariant
# static-analysis suite: reservation-balance, snapshot-pinning,
# no-alias-escape, close-and-cancel, conf-knob-registry, no-row-boxing (Batch.Row
# in a loop, and [][]Datum fields on exec operators) and operator-node
# analyzers over every package. Any unsuppressed finding fails check; deliberate
# exceptions carry //lint:ignore <analyzer> <reason> annotations, and the
# golden-diagnostic fixtures for each analyzer run under `make test`
# (go test ./internal/lint).
lint:
	$(GO) run ./cmd/hivelint .

build:
	$(GO) build ./...

race:
	$(GO) test -race -short ./...

test:
	$(GO) test ./...

# spill reruns the memory-governed regressions at tiny budgets: external
# sort vs in-memory property tests, agg/join spill equivalence, the
# window/spool spill paths added in PR 5, scratch cleanup, and the
# end-to-end beyond-memory byte-identity checks — plus a -race pass over
# one spool hammered by concurrent worker consumers, so the shared-cursor
# and single-flight paths are exercised with the detector on every check.
spill:
	$(GO) test -run 'Spill|ExternalSort|BeyondMemory|Governor|ScratchCleanup|MemoryTriggers|WindowSpill|SpoolS' ./internal/exec ./internal/wm .
	$(GO) test -race -run 'SpoolSingleFlight|SpoolCursor|SpoolSharedParallelRace' ./internal/exec .

# props reruns the property-planning gate (PR 7): the plan/exec unit
# tests for delivered-property derivation, enforcer elision and window
# group planning, the node-contract tests (a toy operator carried through
# every pass, the DAG shape of every operator kind), plus the end-to-end
# suite: the byte-for-byte golden of the physical plans across modes, DOPs
# and properties on/off, the MR plan rendering below its stage boundaries,
# and the byte-identity checks that prove hive.planner.properties=true
# produces the same bytes as the enforcer-everywhere plans at DOP 1/2/4.
props:
	$(GO) test -run 'Props|OrderingSatisfies|PartitioningSatisfies|OrderingCoversSet|ApplyProperties|PushSortThroughWindow|WindowSortSatisfied|PlanWindowGroups|DeliveredProps|ExplainPhysical|NodeContract|WithoutContract|AnalyzeCounts|MRSpillsBelow|PhysicalPlanGolden|MRPlanRenders' ./internal/plan ./internal/exec ./internal/dag .

# serve is the hot-path serving gate (PR 8): literal parameterization and
# digest tests, plan-cache and rewritten result-cache unit suites (the
# result cache also under -race with -tags stress, which deep-freezes
# cached rows and panics on any post-fill mutation), the hs2 regression
# tests for the snapshot-TOCTOU / aliasing / eviction-on-replace /
# admission-digest fixes, and the end-to-end prepared-vs-adhoc
# byte-identity, EXECUTE+INSERT hammer and thundering-herd tests under
# -race.
serve:
	$(GO) test ./internal/plancache
	$(GO) test ./internal/sql -run 'Parameterize|ParsePrepareExecuteDeallocate'
	$(GO) test ./internal/plan -run 'BindParams'
	$(GO) test -race -tags stress ./internal/resultcache
	$(GO) test -race -run 'ResultCacheSnapshotPinned|NormalizedAdmissionDigest|PlanCache|PreparedStatement' ./internal/hs2
	$(GO) test -race -run 'PreparedByteIdenticalToAdhoc|HotPathSkipsCompile|ExecuteInsertHammer|ThunderingHerd|WMHistorySharedAcrossLiterals' .

# elevator is the LLAP I/O elevator gate (PR 9): decoded-vector cache
# LRU/eviction-during-fill unit tests, elevator prefetch/dedup/close and
# metadata-cache LRU tests, the acid delete-delta sarg-skip and
# full-stack elevator-vs-synchronous equivalence tests, then the
# end-to-end suite under -race: on/off byte-identity at DOP 1/2/4 over
# delete deltas and sarg-skipped stripes, the observability counters,
# and the concurrent tiny-decoded-cache hammer (evictions racing fills).
elevator:
	$(GO) test ./internal/llap -run 'DecodedCache|QueryVectorView|Elevator|MetadataCache'
	$(GO) test ./internal/acid -run 'DeleteDeltaSargSkipsStripes|ScanWithElevatorMatchesSynchronous'
	$(GO) test -race -count=1 -run 'TestElevatorByteIdentity|TestElevatorObservability|TestElevatorConcurrentTinyCache' .

# join is the hash-join gate (PR 13), all under -race: the nested-loop
# oracle against HashJoinOp for seven kinds x key shapes x residual x
# DOP 1/2/4 x unlimited/Grace-forcing budget x shared-build clones (parallel
# staging, the bucket-range index build and clones probing one table all run
# with the detector on), the semijoin-reducer value-list cap, the golden
# serial output order of the end-to-end join queries, and the executor-pool
# all-or-nothing acquisition regression.
join:
	$(GO) test -race -count=1 -run 'JoinOracle|BuildFilterValueCap' ./internal/exec
	$(GO) test -race -count=1 -run 'JoinOrderGolden|SerialPlansShareSmallExecutorPool' .

# window is the columnar-materialization gate (PR 15), all under -race: the
# nested-loop window oracle against WindowOp for eight functions x partition
# and order shapes x resident/spilling budget x properties on/off x sorted
# input, the vector comparator against compareKey, the operator- and
# SQL-level spilled-vs-resident equivalence (budgets derived from the store's
# accounted bytes, so "did spill" stays true whatever a stored row costs),
# cancellation inside the sort passes and the partition loop of a
# million-row sort and window, the spool's zero-copy views under two
# concurrent parallel consumers, and the TopN heap's reservation. The
# microbenchmarks of the same operators:
#
#	go test -run '^$$' -bench 'SortOp|WindowResident|SpoolReplay' -benchmem ./internal/exec
window:
	$(GO) test -race -count=1 -run 'WindowOracle|WindowSpillOperatorEquivalence|VectorComparatorMatchesCompareKey|CancelInsideBlockingPhase|SpoolViewsImmutable' ./internal/exec
	$(GO) test -race -count=1 -run 'BeyondMemoryWindow|WindowSpillProperty|WindowCancelMidQuery|TopNHeapIsGoverned' .

# hammer is the multi-tenant overload gate: ~200 concurrent sessions
# across two memory-budgeted WM pools (tiny lookups + beyond-memory
# aggregations) under -race, plus the admission accounting invariants,
# queue-timeout/cancel paths and the query-timeout release test. The
# -short variant of the same tests rides every `make check` via the
# race target.
hammer:
	$(GO) test -race -count=1 -run 'AdmissionHammer|QueryTimeoutReleasesAdmission|SessionCloseCancelsQuery|AccountingInvariants|QueueTimeout|QueueDeadline|BoundedQueue|AdmitContextCanceled' ./internal/wm .

# bench reruns the paper figures, the parallel speedup numbers and the
# beyond-memory (spilling) cases. Filter the parallel-speedup and
# beyond-memory cases with CASES, e.g.:
#
#	make bench CASES=sort_topn
#	make bench CASES='order_by|sort_topn'
#	make bench CASES='sort/budget256k'        # BenchmarkBeyondMemory
BENCHRE = $(if $(CASES),(BenchmarkParallelSpeedup|BenchmarkBeyondMemory)/($(CASES)),.)
bench:
	$(GO) test -run xxx -bench '$(BENCHRE)' -benchmem .
