package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// joinSpillParts is the Grace fan-out: spilled build and probe rows
// partition by key hash across this many file sets, and the
// partition-by-partition probe holds one build partition at a time.
const joinSpillParts = 16

// pairChunk bounds the candidate (probe row, build row) pairs one probe
// step collects before it filters and emits them, so a probe row matching
// the whole build (a nested-loop join, a hot key) never materializes its
// fan-out at once.
const pairChunk = vector.BatchSize

// HashJoinOp joins two inputs. The right input is the build side. Equi-key
// pairs drive the hash table; Residual (over the concatenated row) is
// evaluated per candidate match. Semi/Anti emit only left columns; Single
// enforces the scalar-subquery at-most-one-match guarantee.
//
// The build side lives in one columnar joinTable (jointable.go), staged in
// parallel when Ctx.DOP > 1 (buildTable); a Shared build lets parallel
// probe-pipeline clones probe one table. The probe is batch-at-a-time: hash
// the key vectors, walk the chains comparing hash and then keys column to
// column, collect (probe row, build row) pairs, evaluate Residual once over
// the gathered pairs, and emit by column gather. A join without equi keys
// is the same walk over the one chain that holds every build row.
//
// The build is memory-governed: when the query budget denies growth the
// join Grace-partitions — build rows spill to hash-partitioned scratch
// files, probe rows partition to scratch the same way, and the probe then
// runs partition by partition, each small enough to index in memory.
// Matching keys hash equal, so every match pair lands in one partition.
type HashJoinOp struct {
	Left, Right Operator
	Kind        plan.JoinKind
	LeftKeys    []*CompiledExpr // over left row
	RightKeys   []*CompiledExpr // over right row
	Residual    *CompiledExpr   // over left++right row, may be nil
	Ctx         *Context
	// BuildFilter, when non-nil, receives the build-side key values to
	// populate a dynamic semijoin reducer (paper §4.6).
	BuildFilter *RuntimeFilter
	// Shared, when non-nil, holds the build input and its hash table, built
	// exactly once and probed by every worker clone. Clones have a nil
	// Right.
	Shared *sharedBuild

	outTypes []types.T
	rtTypes  []types.T
	leftW    int
	built    bool
	table    *joinTable
	leftDone bool // Grace: the probe input is wholly partitioned to scratch
	done     bool // nextProbeBatch returned nil: only queued output is left

	// Probe state: batch pb is probed from live row pi on. cur resumes row
	// pi's chain (build row+1; -1 when the row has not started) and carry
	// counts the matches it already had in earlier steps.
	pb       *vector.Batch
	pkeys    []*vector.Vector
	phash    []uint64
	pi       int
	cur      int32
	carry    int
	sel      []int         // Semi/Anti: pb's surviving rows
	pr, br   []int32       // candidate pairs (physical probe row, build row)
	opr, obr []int32       // output pairs; build row -1 null-extends
	scratch  *vector.Batch // Residual's input: the candidate pairs, gathered

	out   *vector.Batch // output batch being filled, outN rows so far
	outN  int
	ready []*vector.Batch

	// Grace state: non-nil graceBuild means the build side spilled and the
	// probe runs partition by partition.
	res        *Reservation
	boxer      rowBoxer
	graceBuild [][]string                    // build partition -> spill files
	probeBufs  [joinSpillParts]*joinTable    // buffered probe rows per partition
	probeFiles [joinSpillParts][]string      // probe partition -> spill files
	gracePart  int                           // partition loaded, or next to load
	probePull  func() (*vector.Batch, error) // loaded partition's probe replay, nil when none is
}

// sharedBuild owns the build input of a parallelized join: the first probe
// worker to need the hash table builds it (opening, draining and closing
// the input exactly once); the rest wait and share it. When the build
// Grace-spilled, grace carries the partition files every clone reads (each
// clone spills and replays its own probe share independently) and
// cleanOnce removes them exactly once at Close, after the exchange has
// finished every clone.
type sharedBuild struct {
	right     Operator
	once      sync.Once
	table     *joinTable
	grace     [][]string
	err       error
	cleanOnce sync.Once
}

// Types implements Operator.
func (j *HashJoinOp) Types() []types.T {
	if j.outTypes == nil {
		lt := j.Left.Types()
		rt := j.Right.Types()
		j.outTypes = lt
		if j.Kind != plan.Semi && j.Kind != plan.Anti {
			j.outTypes = append(append([]types.T{}, lt...), rt...)
		}
		j.leftW, j.rtTypes = len(lt), rt
	}
	return j.outTypes
}

// Open implements Operator.
func (j *HashJoinOp) Open() error {
	j.Types()
	j.built, j.table = false, nil
	j.leftDone, j.done = false, false
	j.pb, j.out, j.ready = nil, nil, nil
	j.graceBuild, j.probeBufs, j.probeFiles = nil, [joinSpillParts]*joinTable{}, [joinSpillParts][]string{}
	j.gracePart, j.probePull = 0, nil
	j.res = j.Ctx.Governor().Reserve("hashjoin") // nil-safe: ungoverned when Ctx or its governor is nil
	if err := j.Left.Open(); err != nil {
		return err
	}
	if j.Right != nil && j.Shared == nil {
		return j.Right.Open()
	}
	return nil
}

func (j *HashJoinOp) newTable() *joinTable { return newJoinTable(j.rtTypes, j.RightKeys) }

// build produces the hash table — or, when the build side spilled, the
// Grace partition files — publishing the semijoin reducer exactly once even
// on failure so parallel scan workers blocked on it can always proceed. A
// shared build is run by the first clone to get here: it opens, drains and
// closes the build input exactly once.
func (j *HashJoinOp) build() error {
	var err error
	if sb := j.Shared; sb != nil {
		sb.once.Do(func() {
			if sb.err = sb.right.Open(); sb.err == nil {
				sb.table, sb.grace, sb.err = j.buildTable(sb.right)
				if cerr := sb.right.Close(); sb.err == nil {
					sb.err = cerr
				}
			}
			j.publishBuildFilter(sb.err)
		})
		j.table, j.graceBuild, err = sb.table, sb.grace, sb.err
	} else {
		j.table, j.graceBuild, err = j.buildTable(j.Right)
		j.publishBuildFilter(err)
	}
	if err != nil {
		return err
	}
	if j.Residual != nil {
		j.scratch = vector.NewBatch(append(append([]types.T{}, j.Left.Types()...), j.rtTypes...), pairChunk)
	}
	j.built = true
	return nil
}

// outer reports a join that emits its unmatched build rows; its tables
// track which rows matched. Such joins are never cloned, so a table with a
// matched bitmap has one prober.
func (j *HashJoinOp) outer() bool { return j.Kind == plan.Right || j.Kind == plan.Full }

// publishBuildFilter publishes the semijoin reducer, if any; a failed build
// resets it to a pass-through first so no rows are wrongly pruned.
func (j *HashJoinOp) publishBuildFilter(err error) {
	f := j.BuildFilter
	if f == nil {
		return
	}
	if err != nil {
		f.Bloom, f.Values = nil, nil
		f.Min, f.Max = types.Datum{}, types.Datum{}
	} else if len(f.Values) > maxPruneValues {
		f.Values = nil // too many values for dynamic partition pruning
	}
	f.Publish()
}

// buildTable drains the build input into one indexed joinTable. With
// Ctx.DOP > 1 it borrows executor slots: workers consume batches from a
// feeder channel and stage them into worker-local tables, which then
// concatenate and index in parallel by bucket range.
//
// The parallel staging runs until the governor first denies a
// reservation: the workers stop, everything staged Grace-flushes to
// hash-partitioned spill files, and the rest of the input continues on
// the single-threaded spilling loop — so a budgeted build that fits keeps
// the full parallel speedup and only an actual overflow pays the serial
// Grace path, returning partition files instead of an in-memory table.
// Nested-loop builds (no equi keys) cannot Grace-partition — every probe
// row must see every build row — so they force-grow instead.
func (j *HashJoinOp) buildTable(right Operator) (*joinTable, [][]string, error) {
	dop, release := 1, func() {}
	if j.Ctx != nil && j.Ctx.DOP > 1 {
		extra, rel := j.Ctx.AcquireExtra(j.Ctx.DOP - 1)
		dop, release = 1+extra, rel
	}
	defer release()

	locals := make([]*joinTable, dop)
	for w := range locals {
		locals[w] = j.newTable()
	}
	_, spillable := j.Ctx.spillTarget()
	canGrace := spillable && len(j.RightKeys) > 0

	var err error
	if dop > 1 {
		var stop atomic.Bool                  // a worker failed, or was denied memory it could spill
		feed := make(chan *vector.Batch, dop) // one batch in flight per worker
		errs := make([]error, dop)
		var wg sync.WaitGroup
		for w := 0; w < dop; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := range feed {
					if errs[w] != nil {
						continue // drain after failure
					}
					var denied bool
					if denied, errs[w] = j.stageBuildBatch(b, locals[w]); errs[w] != nil || denied && canGrace {
						stop.Store(true)
					}
				}
			}(w)
		}
		for err == nil && !stop.Load() {
			var b *vector.Batch
			if err = j.Ctx.CheckCanceled(); err == nil {
				b, err = right.Next()
			}
			if b == nil {
				break
			}
			feed <- b
		}
		close(feed)
		wg.Wait()
		for _, werr := range errs {
			if err == nil {
				err = werr
			}
		}
		// Every worker's staging lands in slot 0: the finished table, or
		// the first Grace flush the serial loop below continues from.
		for w := 1; w < dop && err == nil; w++ {
			locals[0].appendTable(locals[w])
			locals[w] = nil
		}
		if err == nil && stop.Load() {
			err = j.flushBuildSpill(locals[0])
		}
	}
	t := locals[0]
	// Serial: the whole input, or whatever the parallel staging left after
	// the Grace switch. A denied batch is resident all the same; the flush
	// waits until enough has accumulated to be worth its files.
	for err == nil && (dop == 1 || j.graceBuild != nil) {
		var b *vector.Batch
		if err = j.Ctx.CheckCanceled(); err == nil {
			b, err = right.Next()
		}
		if b == nil {
			break
		}
		var denied bool
		if denied, err = j.stageBuildBatch(b, t); err == nil && denied && canGrace && j.res.ShouldSpill() {
			err = j.flushBuildSpill(t)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if j.graceBuild != nil {
		// The build spilled at least once: flush the staged remainder so
		// the whole build side is on disk, partitioned by key hash.
		return nil, j.graceBuild, j.flushBuildSpill(t)
	}
	t.buildIndex(dop, j.outer())
	t.feedFilter(j.BuildFilter)
	return t, nil, nil
}

// stageBuildBatch stages one build batch into a table — keys evaluated and
// hashed column-at-a-time, live rows retained column-wise — and charges the
// governor what it now holds: the vector payload plus 16 bytes per row for
// the hash and the chain index. denied reports a refused reservation; the
// bytes are taken regardless, since the rows are resident until a flush.
func (j *HashJoinOp) stageBuildBatch(b *vector.Batch, t *joinTable) (denied bool, err error) {
	keys, err := evalKeys(j.RightKeys, b, nil)
	if err != nil {
		return false, err
	}
	sz := t.appendRows(b.Cols, keys, b.Sel, b.N) + 16*int64(b.N)
	t.hashes = hashKeys(keys, b, t.hashes)
	if denied = !j.res.Grow(sz); denied {
		j.res.ForceGrow(sz)
	}
	return denied, nil
}

// flushBuildSpill Grace-partitions the staged build rows into per-partition
// spill files — each row serialized as its key hash, key values and data
// row, so partition reloads rebuild the table without re-evaluating key
// expressions — and empties the table. The semijoin reducer is fed here,
// since spilled rows never reach the in-memory filter pass.
func (j *HashJoinOp) flushBuildSpill(t *joinTable) error {
	if j.graceBuild == nil {
		j.graceBuild = make([][]string, joinSpillParts)
	}
	t.feedFilter(j.BuildFilter)
	var rows [joinSpillParts][]int32
	for r, h := range t.hashes {
		rows[h%joinSpillParts] = append(rows[h%joinSpillParts], int32(r))
	}
	cols := append(append([]*vector.Vector{}, t.keys...), t.cols...)
	for p, sel := range rows {
		if len(sel) == 0 {
			continue
		}
		path, err := j.boxer.spill(j.Ctx, fmt.Sprintf("join_build_p%02d", p), t.hashes, cols, sel, len(sel))
		if err != nil {
			return err
		}
		j.graceBuild[p] = append(j.graceBuild[p], path)
	}
	*t = *j.newTable()
	j.res.Release()
	return nil
}

func updateFilter(f *RuntimeFilter, d types.Datum) {
	if f.Bloom == nil {
		f.Bloom = NewBloom(4096)
	}
	f.Bloom.Add(d.Hash())
	if f.Min.K == types.Unknown || d.Compare(f.Min) < 0 {
		f.Min = d
	}
	if f.Max.K == types.Unknown || d.Compare(f.Max) > 0 {
		f.Max = d
	}
	// One value past the pruning limit is all publishBuildFilter needs to
	// see the overflow; a big build must not keep a datum per row here.
	if len(f.Values) <= maxPruneValues {
		f.Values = append(f.Values, d)
	}
}

// maxPruneValues is the most distinct-or-not build keys dynamic partition
// pruning will enumerate.
const maxPruneValues = 10000

// Next implements Operator.
func (j *HashJoinOp) Next() (*vector.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	for {
		if len(j.ready) > 0 {
			out := j.ready[0]
			j.ready = j.ready[1:]
			return out, nil
		}
		if j.pb != nil {
			if err := j.probeStep(); err != nil {
				return nil, err
			}
			continue
		}
		if j.done {
			out := j.out
			if out != nil {
				out.N, j.out = j.outN, nil
			}
			return out, nil
		}
		b, err := j.nextProbeBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.done = true
			continue
		}
		if j.pkeys, err = evalKeys(j.LeftKeys, b, j.pkeys); err != nil {
			return nil, err
		}
		j.phash = hashKeys(j.pkeys, b, j.phash[:0])
		j.pb, j.pi, j.cur, j.carry = b, 0, -1, 0
		if j.Kind == plan.Semi || j.Kind == plan.Anti {
			j.sel = make([]int, 0, b.N) // leaves with the output batch
		}
	}
}

// nextProbeBatch returns the next batch to probe j.table with, nil when
// none is left. In memory that is the left input; after the last batch the
// unmatched build rows (right/full outer) are emitted. A spilled join first
// partitions the whole probe input to scratch by key hash, then loads one
// build partition at a time into a table and replays that partition's
// probe rows, emitting the partition's unmatched build rows before it
// moves on.
func (j *HashJoinOp) nextProbeBatch() (*vector.Batch, error) {
	if j.graceBuild == nil {
		b, err := j.Left.Next()
		if b == nil && err == nil {
			j.emitUnmatched()
		}
		return b, err
	}
	for !j.leftDone {
		if err := j.Ctx.CheckCanceled(); err != nil {
			return nil, err
		}
		b, err := j.Left.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.leftDone = true
			err = j.flushProbeBufs()
		} else {
			err = j.spillProbeBatch(b)
		}
		if err != nil {
			return nil, err
		}
	}
	for {
		if j.probePull != nil {
			if b, err := j.probePull(); b != nil || err != nil {
				return b, err
			}
			j.emitUnmatched()
			j.freeGracePart()
		}
		if j.gracePart >= joinSpillParts {
			return nil, nil
		}
		if err := j.loadGracePart(); err != nil {
			return nil, err
		}
	}
}

// spillProbeBatch partitions one probe batch into per-partition column
// buffers by key hash, flushing every buffer to scratch when the governor
// denies the growth.
func (j *HashJoinOp) spillProbeBatch(b *vector.Batch) error {
	var err error
	if j.pkeys, err = evalKeys(j.LeftKeys, b, j.pkeys); err != nil {
		return err
	}
	j.phash = hashKeys(j.pkeys, b, j.phash[:0])
	var sels [joinSpillParts][]int
	for i, h := range j.phash {
		sels[h%joinSpillParts] = append(sels[h%joinSpillParts], b.RowIdx(i))
	}
	var sz int64
	for p, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		if j.probeBufs[p] == nil {
			j.probeBufs[p] = newJoinTable(j.Left.Types(), nil)
		}
		sz += j.probeBufs[p].appendRows(b.Cols, nil, sel, len(sel))
	}
	if !j.res.Grow(sz) {
		// Resident either way; flush once the buffers are worth their files.
		if j.res.ForceGrow(sz); j.res.ShouldSpill() {
			return j.flushProbeBufs()
		}
	}
	return nil
}

// flushProbeBufs writes every buffered probe partition to scratch and
// frees the buffers.
func (j *HashJoinOp) flushProbeBufs() error {
	for p, buf := range j.probeBufs {
		if buf == nil {
			continue
		}
		path, err := j.boxer.spill(j.Ctx, fmt.Sprintf("join_probe_p%02d", p), nil, buf.cols, nil, buf.n)
		if err != nil {
			return err
		}
		j.probeFiles[p] = append(j.probeFiles[p], path)
		j.probeBufs[p] = nil
	}
	j.res.Release()
	return nil
}

// loadGracePart decodes partition gracePart's build spill files straight
// into a table (single-level Grace: one partition is assumed to fit once
// loaded) and queues its probe files for replay.
func (j *HashJoinOp) loadGracePart() error {
	fs, _ := j.Ctx.spillTarget()
	p := j.gracePart
	t := j.newTable()
	nk := len(t.keys)
	ts := []types.T{types.TBigint}
	for _, k := range t.keys {
		ts = append(ts, k.Type)
	}
	pull := runFilePuller(fs, j.graceBuild[p], append(ts, j.rtTypes...))
	var bytes int64
	for {
		if err := j.Ctx.CheckCanceled(); err != nil {
			return err
		}
		b, err := pull()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		bytes += t.appendRows(b.Cols[1+nk:], b.Cols[1:1+nk], nil, b.N) + 16*int64(b.N)
		for _, h := range b.Cols[0].I64[:b.N] {
			t.hashes = append(t.hashes, uint64(h))
		}
	}
	t.buildIndex(1, j.outer())
	j.res.ForceGrow(bytes)
	j.table = t
	// The partition's probe rows stream back through the shared run-file
	// puller (merge.go), one block resident at a time.
	j.probePull = runFilePuller(fs, j.probeFiles[p], j.Left.Types())
	return nil
}

// freeGracePart drops the loaded partition and removes its spill files.
// Shared-build clones keep the shared build files — other clones may still
// need them; sharedBuild removes them once at Close.
func (j *HashJoinOp) freeGracePart() {
	p := j.gracePart
	if j.Shared == nil {
		j.Ctx.removeSpills(j.graceBuild[p])
		j.graceBuild[p] = nil
	}
	j.Ctx.removeSpills(j.probeFiles[p])
	j.probeFiles[p] = nil
	j.table, j.probePull = nil, nil
	j.res.Release()
	j.gracePart++
}

// emitUnmatched emits the table's unmatched build rows, null-extended on
// the left (right/full outer): every left index is -1, so the left columns
// gather NULLs out of an empty batch.
func (j *HashJoinOp) emitUnmatched() {
	if j.table == nil || j.table.matched == nil {
		return
	}
	opr, obr := j.opr[:0], j.obr[:0]
	for r, m := range j.table.matched {
		if !m {
			opr, obr = append(opr, -1), append(obr, int32(r))
		}
	}
	j.opr, j.obr = opr, obr
	j.emit(vector.NewBatch(j.Left.Types(), 0).Cols, opr, obr)
}

// probeStep advances the probe of batch pb by one chunk of candidate pairs:
// collect, filter by Residual, apply the join kind row by row, emit. It
// clears pb when the batch is spent.
func (j *HashJoinOp) probeStep() error {
	b, t := j.pb, j.table
	// Without a residual the first key match settles a semi/anti row.
	firstOnly := j.Residual == nil && (j.Kind == plan.Semi || j.Kind == plan.Anti)
	lo := j.pi
	pr, br := j.pr[:0], j.br[:0]
	for j.pi < b.N && len(pr) < pairChunk {
		r, h, c := b.RowIdx(j.pi), j.phash[j.pi], j.cur
		if c < 0 {
			c = 0
			if !anyNull(j.pkeys, r) {
				c = t.heads[h>>t.shift]
			}
		}
		for c != 0 && len(pr) < pairChunk {
			row := c - 1
			c = t.next[row]
			if t.hashes[row] == h && keysEqual(j.pkeys, r, t.keys, int(row)) {
				pr, br = append(pr, int32(r)), append(br, row)
				if firstOnly {
					c = 0
				}
			}
		}
		if j.cur = c; c != 0 {
			break // chunk full mid-chain: row pi resumes next step
		}
		j.cur = -1
		j.pi++
	}
	j.pr, j.br = pr, br
	if j.Residual != nil && len(pr) > 0 {
		n, err := j.filterResidual(pr, br)
		if err != nil {
			return err
		}
		pr, br = pr[:n], br[:n]
	}

	partial := j.cur > 0
	opr, obr := pr, br
	if j.Kind != plan.Inner {
		opr, obr = j.opr[:0], j.obr[:0]
		end, k := j.pi, 0
		if partial {
			end++
		}
		for i := lo; i < end; i++ {
			r, m := int32(b.RowIdx(i)), 0
			if i == lo {
				m = j.carry
			}
			for ; k < len(pr) && pr[k] == r; k++ {
				m++
				switch {
				case j.Kind == plan.Semi:
					if m == 1 {
						j.sel = append(j.sel, int(r))
					}
				case j.Kind == plan.Anti:
				case j.Kind == plan.Single && m > 1:
					return fmt.Errorf("exec: scalar subquery returned more than one row")
				default:
					opr, obr = append(opr, r), append(obr, br[k])
					if t.matched != nil {
						t.matched[br[k]] = true
					}
				}
			}
			if partial && i == j.pi {
				j.carry = m
				break
			}
			if m == 0 {
				switch j.Kind {
				case plan.Anti:
					j.sel = append(j.sel, int(r))
				case plan.Left, plan.Full, plan.Single:
					opr, obr = append(opr, r), append(obr, -1)
				}
			}
		}
		if !partial {
			j.carry = 0
		}
		j.opr, j.obr = opr, obr
	}
	j.emit(b.Cols, opr, obr)
	if j.pi >= b.N {
		if len(j.sel) > 0 {
			// Semi/Anti: the input batch under a new selection, no copy.
			j.ready = append(j.ready, &vector.Batch{Cols: b.Cols, Sel: j.sel, N: len(j.sel)})
		}
		j.pb, j.sel = nil, nil
	}
	return nil
}

func anyNull(cols []*vector.Vector, r int) bool {
	for _, c := range cols {
		if c.IsNull(r) {
			return true
		}
	}
	return false
}

// keysEqual compares probe row r with build row br key column by key
// column; a NULL on either side equals nothing.
func keysEqual(probe []*vector.Vector, r int, build []*vector.Vector, br int) bool {
	for k, pc := range probe {
		if !pc.EqRow(r, build[k], br) {
			return false
		}
	}
	return true
}

// filterResidual evaluates Residual once over the candidate pairs, gathered
// into the reused scratch batch, and compacts the pairs it holds for to the
// front of pr/br, returning how many there are.
func (j *HashJoinOp) filterResidual(pr, br []int32) (int, error) {
	j.gatherPairs(j.scratch, 0, j.pb.Cols, pr, br)
	j.scratch.N = len(pr)
	v, err := j.Residual.Eval(j.scratch)
	if err != nil {
		return 0, err
	}
	n := 0
	for k := range pr {
		if !v.IsNull(k) && v.I64[k] != 0 {
			pr[n], br[n] = pr[k], br[k]
			n++
		}
	}
	return n, nil
}

// gatherPairs fills dst's rows from at on with the pairs: the left columns
// from left by pr, the build columns from the table by br, -1 giving NULL.
func (j *HashJoinOp) gatherPairs(dst *vector.Batch, at int, left []*vector.Vector, pr, br []int32) {
	for c, col := range dst.Cols {
		if c < j.leftW {
			col.Gather(at, left[c], pr)
		} else {
			col.Gather(at, j.table.cols[c-j.leftW], br)
		}
	}
}

// emit gathers the output pairs into BatchSize output batches, queueing
// each as it fills.
func (j *HashJoinOp) emit(left []*vector.Vector, pr, br []int32) {
	for len(pr) > 0 {
		if j.out == nil {
			j.out, j.outN = vector.NewBatch(j.outTypes, vector.BatchSize), 0
		}
		n := min(len(pr), vector.BatchSize-j.outN)
		j.gatherPairs(j.out, j.outN, left, pr[:n], br[:n])
		pr, br = pr[n:], br[n:]
		if j.outN += n; j.outN == vector.BatchSize {
			j.out.N = j.outN
			j.ready = append(j.ready, j.out)
			j.out = nil
		}
	}
}

// Close implements Operator. Any Grace spill files still on disk — the
// probe never ran, or ended early on error or a satisfied LIMIT — are
// removed; shared build files are removed exactly once, after the
// exchange has finished every clone.
func (j *HashJoinOp) Close() error {
	removeBuild := func() {
		for _, files := range j.graceBuild {
			j.Ctx.removeSpills(files)
		}
	}
	if j.Shared == nil {
		removeBuild()
	} else if j.graceBuild != nil {
		j.Shared.cleanOnce.Do(removeBuild)
	}
	for _, files := range j.probeFiles {
		j.Ctx.removeSpills(files)
	}
	j.table, j.pb, j.out, j.ready, j.scratch = nil, nil, nil, nil, nil
	j.graceBuild, j.probeBufs, j.probeFiles = nil, [joinSpillParts]*joinTable{}, [joinSpillParts][]string{}
	j.res.Release()
	err := j.Left.Close()
	if j.Right != nil && j.Shared == nil {
		if cerr := j.Right.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Child implements Node: the probe side, then the build side wherever the
// planner left it.
func (j *HashJoinOp) Child(i int) *Operator {
	if j.Shared != nil {
		return twoChildren(i, &j.Left, &j.Shared.right)
	}
	return twoChildren(i, &j.Left, &j.Right)
}

// Describe implements Node.
func (j *HashJoinOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "HashJoin kind=%s", j.Kind)
	if j.Shared != nil {
		b.WriteString(" shared-build")
	}
}

// Stage implements Node.
func (j *HashJoinOp) Stage() Stage { return StageVertex | StageBreaker }

// Delivers implements the property fact: the probe pipeline emits left rows
// (expanded by matches) in left order with left ordinals unchanged for the
// kinds whose output leads with — or is exactly — the left row, so the left
// stream's partitioning survives.
func (j *HashJoinOp) Delivers() plan.Properties {
	switch j.Kind {
	case plan.Inner, plan.Left, plan.Semi, plan.Anti:
		return plan.Properties{Partitioning: DeliveredProps(j.Left).Partitioning}
	}
	return plan.Properties{}
}

func (j *HashJoinOp) streamed() Operator {
	if j.Kind == plan.Right || j.Kind == plan.Full || len(j.LeftKeys) == 0 {
		return nil
	}
	return j.Left
}

func (j *HashJoinOp) cloneOver(in Operator) Operator {
	return &HashJoinOp{
		Left: in, Right: j.Right, Kind: j.Kind,
		LeftKeys: j.LeftKeys, RightKeys: j.RightKeys, Residual: j.Residual,
		Ctx: j.Ctx, Shared: j.Shared, BuildFilter: j.BuildFilter,
		outTypes: j.outTypes, leftW: j.leftW, rtTypes: j.rtTypes,
	}
}
