// Memory-governed hash aggregation: spillAggTable wraps the in-memory
// groupTable with the budget/spill protocol. When the governor denies
// growth, every accumulated group serializes — keys, grouping id and
// mergeable aggregate states — into hash-partitioned run files on the DFS
// scratch directory; the drain then re-aggregates one partition at a time
// (groups with equal keys always land in the same partition, so each
// partition merges independently within a bounded footprint) before
// emission. Both the serial HashAggOp and the final merge of the two-phase
// ParallelHashAggOp sit on this table, so partial aggregates from workers
// and re-read spill partitions fold in through one code path.
package exec

import (
	"fmt"

	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// aggSpillParts is the spill fan-out: groups partition by hash across this
// many run-file sets, and the drain holds one partition's groups at a
// time. Each flush writes one file per non-empty partition, so the drain
// pays one seek per (flush, partition) — 8 keeps partitions small enough
// to re-aggregate in memory while halving the seek count of a 16-way
// split.
const aggSpillParts = 8

// spillAggTable is a group table with a memory reservation and a spill
// path. The zero Context (or nil) degrades to plain in-memory aggregation.
type spillAggTable struct {
	ctx     *Context
	aggs    []CompiledAgg
	nKeys   int
	res     *Reservation
	table   *groupTable
	spilled bool
	ngroups int        // total inserts (over-counts across flushes; zero-vs-nonzero only)
	parts   [][]string // partition -> run files, in flush order

	// drain state (spilled mode): one partition resident at a time.
	partIdx   int
	partTable *groupTable
	partEmit  int
	emitted   int // non-spilled drain position
}

func newSpillAggTable(ctx *Context, aggs []CompiledAgg, nKeys int) *spillAggTable {
	return &spillAggTable{
		ctx:   ctx,
		aggs:  aggs,
		nKeys: nKeys,
		res:   ctx.Governor().Reserve("hashagg"),
		table: newGroupTable(),
	}
}

// groupBytes estimates one group's resident footprint: the struct, its key
// datums and the fixed part of each aggregate state.
func groupBytes(g *aggGroup) int64 {
	n := int64(64) + rowBytes(g.keys)
	n += int64(len(g.states)) * 96
	return n
}

// findOrAdd returns the group for (h, gid, keys at row r), creating it
// under the memory budget: a denied reservation spills the whole table
// first, so the new group always lands in a (possibly fresh) resident
// table.
func (t *spillAggTable) findOrAdd(h uint64, gid int64, keyCols []*vector.Vector, r int, mask []bool) (*aggGroup, error) {
	if g := t.table.lookup(h, gid, keyCols, r, mask); g != nil {
		return g, nil
	}
	g := newAggGroup(h, gid, keyCols, r, mask, len(t.aggs))
	if err := t.grow(groupBytes(g)); err != nil {
		return nil, err
	}
	t.insert(g)
	return g, nil
}

func (t *spillAggTable) insert(g *aggGroup) {
	t.table.insert(g)
	t.ngroups++
}

// grow reserves n bytes for state about to be added to the resident table,
// spilling the table when denied. After a spill the bytes are force-taken:
// they are the new state's minimum working set. Denials while the table is
// still small (ShouldSpill false) overshoot instead of flushing tiny
// files.
func (t *spillAggTable) grow(n int64) error {
	if t.res.Grow(n) {
		return nil
	}
	// The state is resident either way; take the bytes, then flush if the
	// table is now worth a spill file.
	t.res.ForceGrow(n)
	if _, ok := t.ctx.spillTarget(); !ok || !t.res.ShouldSpill() {
		return nil
	}
	if err := t.spill(); err != nil {
		return err
	}
	t.res.ForceGrow(n)
	return nil
}

// noteStateGrowth accounts bytes a resident aggregate state just grew by
// (DISTINCT value sets). The growth already happened, so a denied
// reservation spills the table — the grown state goes to disk with it and
// nothing stays held.
func (t *spillAggTable) noteStateGrowth(n int64) error {
	if n <= 0 || t.res.Grow(n) {
		return nil
	}
	t.res.ForceGrow(n)
	if _, ok := t.ctx.spillTarget(); !ok || !t.res.ShouldSpill() {
		return nil
	}
	return t.spill()
}

// releaseResident hands the resident table's accounting back to the
// governor without touching the groups: the two-phase final merge calls it
// before re-accounting a drained partial's groups one by one, so the same
// group objects are never counted twice while ownership transfers.
func (t *spillAggTable) releaseResident() { t.res.Release() }

// mergeGroup folds one complete group (a worker partial or a re-read spill
// group) into the table: equal keys merge aggregate states, new keys
// insert under the budget.
func (t *spillAggTable) mergeGroup(g *aggGroup) error {
	if dst := t.table.lookupKeys(g.h, g.gid, g.keys); dst != nil {
		for ai := range t.aggs {
			dst.states[ai].merge(t.aggs[ai], &g.states[ai])
		}
		return nil
	}
	// Insert is split from the fold so the reservation (which may spill
	// the table and invalidate the lookup) happens before residency.
	if err := t.grow(groupBytes(g)); err != nil {
		return err
	}
	t.insert(g)
	return nil
}

// appendGroup inserts a group known to be absent from the table — worker
// partials over partition-wise (key-disjoint) input never share a group —
// skipping mergeGroup's hash lookup entirely.
func (t *spillAggTable) appendGroup(g *aggGroup) error {
	if err := t.grow(groupBytes(g)); err != nil {
		return err
	}
	t.insert(g)
	return nil
}

// addEmpty inserts the global aggregate's empty group (zero input rows
// still emit one row).
func (t *spillAggTable) addEmpty() {
	g := newAggGroup(groupSeed(0), 0, nil, 0, nil, len(t.aggs))
	t.res.ForceGrow(groupBytes(g))
	t.insert(g)
}

func (t *spillAggTable) groupCount() int { return t.ngroups }

// spill serializes every resident group into hash-partitioned run files
// and resets the table. Equal keys hash equal, so all flushes of one key
// land in one partition and re-aggregate together at drain.
func (t *spillAggTable) spill() error {
	buckets := make([][][]types.Datum, aggSpillParts)
	for _, g := range t.table.order {
		p := int(g.h % aggSpillParts)
		buckets[p] = append(buckets[p], encodeAggGroup(g, t.aggs))
	}
	if t.parts == nil {
		t.parts = make([][]string, aggSpillParts)
	}
	for p, rows := range buckets {
		if len(rows) == 0 {
			continue
		}
		path, err := writeRunFile(t.ctx, fmt.Sprintf("agg_p%02d", p), rows)
		if err != nil {
			return err
		}
		t.parts[p] = append(t.parts[p], path)
	}
	t.spilled = true
	t.table = newGroupTable()
	t.res.Release()
	return nil
}

// finish seals consumption: once anything spilled, the resident remainder
// spills too, so the drain is purely partition-at-a-time.
func (t *spillAggTable) finish() error {
	if t.spilled && len(t.table.order) > 0 {
		return t.spill()
	}
	return nil
}

// loadPart re-aggregates partition p's run files into a fresh resident
// table (single-level recursion: a partition is assumed to fit once its
// duplicate key flushes merge, the standard Grace assumption).
func (t *spillAggTable) loadPart(p int) error {
	fs, _ := t.ctx.spillTarget()
	t.partTable = newGroupTable()
	t.partEmit = 0
	for _, path := range t.parts[p] {
		r, err := spill.OpenReader(fs, path)
		if err != nil {
			return err
		}
		for {
			if err := t.ctx.CheckCanceled(); err != nil {
				return err
			}
			rows, err := r.Next()
			if err != nil {
				return err
			}
			if rows == nil {
				break
			}
			for _, row := range rows {
				g, err := decodeAggGroup(row, t.nKeys, t.aggs)
				if err != nil {
					return err
				}
				if t.partTable.mergeInto(g, t.aggs) {
					t.res.ForceGrow(groupBytes(g))
				}
			}
		}
	}
	return nil
}

// freePart drops partition p's resident table and removes its run files.
func (t *spillAggTable) freePart(p int) {
	t.ctx.removeSpills(t.parts[p])
	t.parts[p] = nil
	t.partTable = nil
	t.partEmit = 0
	t.res.Release()
}

// nextBatch emits the next batch of result groups: insertion order when
// everything stayed resident, partition-at-a-time after a spill.
func (t *spillAggTable) nextBatch(out []types.T, gsets [][]int) (*vector.Batch, error) {
	if !t.spilled {
		b := t.table.emitBatch(t.emitted, out, t.aggs, gsets)
		if b != nil {
			t.emitted += b.N
		}
		return b, nil
	}
	for {
		if t.partTable != nil {
			if b := t.partTable.emitBatch(t.partEmit, out, t.aggs, gsets); b != nil {
				t.partEmit += b.N
				return b, nil
			}
			t.freePart(t.partIdx)
			t.partIdx++
		}
		if t.partIdx >= aggSpillParts {
			return nil, nil
		}
		if err := t.loadPart(t.partIdx); err != nil {
			return nil, err
		}
	}
}

// partitionGroups streams partition p's groups through fn: spilled tables
// reload the partition's files (freeing them afterwards), resident tables
// filter by hash. Group hashing is identical across the workers of one
// query, so partition p means the same key subset in every sink — the
// partition-aligned final merge of ParallelHashAggOp leans on that.
func (t *spillAggTable) partitionGroups(p int, fn func(*aggGroup) error) error {
	if !t.spilled {
		for _, g := range t.table.order {
			if int(g.h%aggSpillParts) == p {
				if err := fn(g); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := t.loadPart(p); err != nil {
		return err
	}
	for _, g := range t.partTable.order {
		if err := fn(g); err != nil {
			return err
		}
	}
	t.freePart(p)
	return nil
}

// drainGroups streams every final group through fn — the two-phase
// parallel aggregation folds worker partials into the coordinator table
// this way, spilled or not.
func (t *spillAggTable) drainGroups(fn func(*aggGroup) error) error {
	if !t.spilled {
		for _, g := range t.table.order {
			if err := fn(g); err != nil {
				return err
			}
		}
		return nil
	}
	if err := t.finish(); err != nil {
		return err
	}
	for p := 0; p < aggSpillParts; p++ {
		if err := t.loadPart(p); err != nil {
			return err
		}
		for _, g := range t.partTable.order {
			if err := fn(g); err != nil {
				return err
			}
		}
		t.freePart(p)
	}
	return nil
}

// close removes any remaining spill files (mid-query errors leave
// partitions undrained) and returns the reservation.
func (t *spillAggTable) close() {
	if t == nil {
		return
	}
	for _, files := range t.parts {
		t.ctx.removeSpills(files)
	}
	t.parts, t.table, t.partTable = nil, nil, nil
	t.res.Release()
}

// encodeAggGroup serializes one group as a datum row: the bucket hash and
// grouping id, the key values, then each aggregate state's mergeable
// fields — count, integer/float sums, decimal scale, extrema and, for
// DISTINCT, the value set (count-prefixed). Everything is a plain datum,
// so the spill row codec handles the whole group.
func encodeAggGroup(g *aggGroup, aggs []CompiledAgg) []types.Datum {
	row := make([]types.Datum, 0, 2+len(g.keys)+len(aggs)*7)
	row = append(row, types.NewBigint(int64(g.h)), types.NewBigint(g.gid))
	row = append(row, g.keys...)
	for ai := range aggs {
		st := &g.states[ai]
		row = append(row,
			types.NewBigint(st.count),
			types.NewBigint(st.sumI),
			types.NewDouble(st.sumF),
			types.NewBigint(int64(st.sumScale)),
			st.min,
			st.max,
		)
		row = append(row, types.NewBigint(int64(len(st.dorder))))
		row = append(row, st.dorder...)
	}
	return row
}

// decodeAggGroup is the inverse of encodeAggGroup. DISTINCT states rebuild
// by replaying their value set through update, which regenerates the
// deduplication map, count and sums exactly as the first pass did.
func decodeAggGroup(row []types.Datum, nKeys int, aggs []CompiledAgg) (*aggGroup, error) {
	if len(row) < 2+nKeys {
		return nil, fmt.Errorf("exec: truncated spilled aggregation group")
	}
	g := &aggGroup{
		h:      uint64(row[0].I),
		gid:    row[1].I,
		keys:   row[2 : 2+nKeys],
		states: make([]aggState, len(aggs)),
	}
	pos := 2 + nKeys
	for ai := range aggs {
		if len(row) < pos+7 {
			return nil, fmt.Errorf("exec: truncated spilled aggregate state")
		}
		st := &g.states[ai]
		count, sumI := row[pos].I, row[pos+1].I
		sumF, sumScale := row[pos+2].F, int(row[pos+3].I)
		min, max := row[pos+4], row[pos+5]
		nd := int(row[pos+6].I)
		pos += 7
		if len(row) < pos+nd {
			return nil, fmt.Errorf("exec: truncated spilled DISTINCT set")
		}
		if aggs[ai].Distinct {
			for _, d := range row[pos : pos+nd] {
				st.update(aggs[ai], d)
			}
		} else {
			st.count, st.sumI, st.sumF, st.sumScale = count, sumI, sumF, sumScale
			st.min, st.max = min, max
		}
		pos += nd
	}
	return g, nil
}
