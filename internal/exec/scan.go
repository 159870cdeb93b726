package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/acid"
	"repro/internal/dfs"
	"repro/internal/metastore"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// TableSplit is one unit of scan work, with its snapshot and the partition
// key values. The zero value of the stripe fields makes the split a whole
// table/partition directory — the granularity MR and container modes scan
// at. The parallel planner refines directory splits into stripe-granular
// morsels (paper §5.1): File names one data file and [StripeLo, StripeHi)
// the stripes to read through Snap, the ACID snapshot shared by every
// split of the same directory so delete deltas load once, not per morsel.
type TableSplit struct {
	Loc        string
	PartValues []types.Datum // one per partition key column
	Valid      txn.ValidWriteIds

	File     string
	StripeLo int
	StripeHi int
	Snap     *acid.Snapshot
}

// RuntimeFilterBind attaches a dynamic semijoin reducer (paper §4.6) to a
// scan output column: rows whose value falls outside the reducer's range or
// Bloom filter are dropped at the scan.
type RuntimeFilterBind struct {
	FilterID int
	OutCol   int
}

// PartPruneBind prunes entire splits using the value set of a reducer
// (dynamic partition pruning, paper §4.6).
type PartPruneBind struct {
	FilterID int
	PartKey  int // index into the table's partition key columns
}

// SplitQueue is a shared morsel dispenser: parallel scan workers steal
// splits from it through an atomic index (morsel-driven scheduling after
// Leis et al.; LLAP executors process scan fragments the same way). The
// first taker applies dynamic partition pruning once for everyone.
type SplitQueue struct {
	splits []TableSplit
	next   atomic.Int64
	prune  sync.Once
}

// NewSplitQueue shares the given splits between workers.
func NewSplitQueue(splits []TableSplit) *SplitQueue {
	return &SplitQueue{splits: splits}
}

// take returns the next unclaimed split, pruning the list once first.
func (q *SplitQueue) take(prune func([]TableSplit) []TableSplit) (TableSplit, bool) {
	if prune != nil {
		q.prune.Do(func() { q.splits = prune(q.splits) })
	}
	i := int(q.next.Add(1) - 1)
	if i >= len(q.splits) {
		return TableSplit{}, false
	}
	return q.splits[i], true
}

// peek returns up to n upcoming unclaimed splits without claiming them.
// Racy by design: another worker may claim a peeked split at any moment,
// which is harmless for advisory prefetch hints. Callers must have taken
// at least one split already, so the one-time prune has run and q.splits
// is stable.
func (q *SplitQueue) peek(n int) []TableSplit {
	i := int(q.next.Load())
	if i >= len(q.splits) {
		return nil
	}
	if end := i + n; end < len(q.splits) {
		return q.splits[i:end]
	}
	return q.splits[i:]
}

// ScanOp reads an ACID table: it merges base and delta stores under the
// split's WriteId snapshot, pushes the search argument into stripe
// selection, fills partition key columns from the split, and applies
// runtime semijoin reducers.
type ScanOp struct {
	FS    *dfs.FS
	Table *metastore.Table
	// Cols are table-column ordinals (data columns then partition keys).
	Cols   []int
	Meta   bool
	Splits []TableSplit
	Sarg   *orc.SearchArgument // over the ACID file schema (3 meta + data)
	RF     []RuntimeFilterBind
	Prune  []PartPruneBind
	Ctx    *Context
	// Shared, when non-nil, overrides Splits: this scan is one worker of a
	// parallel scan and steals its splits from the shared morsel queue.
	Shared *SplitQueue

	outTypes []types.T
	splitIdx int
	pending  []*vector.Batch
	started  bool
}

// Types implements Operator.
func (s *ScanOp) Types() []types.T {
	if s.outTypes == nil {
		if s.Meta {
			s.outTypes = append(s.outTypes, types.TBigint, types.TBigint, types.TBigint)
		}
		all := plan.TableCols(s.Table)
		for _, c := range s.Cols {
			s.outTypes = append(s.outTypes, all[c].Type)
		}
	}
	return s.outTypes
}

// Open implements Operator.
func (s *ScanOp) Open() error {
	s.Types()
	s.splitIdx = 0
	s.pending = nil
	s.started = false
	return nil
}

// dataColCount returns the number of stored (non-partition) columns.
func (s *ScanOp) dataColCount() int { return len(s.Table.Cols) }

// Next implements Operator.
func (s *ScanOp) Next() (*vector.Batch, error) {
	if !s.started {
		s.started = true
		if s.Shared == nil {
			s.Splits = s.pruneList(s.Splits)
		}
	}
	// Scans are where long queries spend their input phase, so this is the
	// cancellation point that makes hive.query.timeout and client
	// disconnects effective even under a blocking operator upstream.
	if err := s.Ctx.CheckCanceled(); err != nil {
		return nil, err
	}
	for {
		if len(s.pending) > 0 {
			b := s.pending[0]
			s.pending = s.pending[1:]
			return b, nil
		}
		split, ok := s.nextSplit()
		if !ok {
			return nil, nil
		}
		if err := s.scanSplit(split); err != nil {
			return nil, err
		}
	}
}

// nextSplit claims the next morsel, either from this operator's own split
// list or from the shared work-stealing queue.
func (s *ScanOp) nextSplit() (TableSplit, bool) {
	if s.Shared != nil {
		return s.Shared.take(s.pruneList)
	}
	if s.splitIdx >= len(s.Splits) {
		return TableSplit{}, false
	}
	split := s.Splits[s.splitIdx]
	s.splitIdx++
	return split, true
}

// pruneList applies dynamic partition pruning using runtime filters.
func (s *ScanOp) pruneList(splits []TableSplit) []TableSplit {
	if len(s.Prune) == 0 || s.Ctx == nil {
		return splits
	}
	kept := make([]TableSplit, 0, len(splits))
	for _, split := range splits {
		keep := true
		for _, p := range s.Prune {
			f := s.Ctx.Filter(p.FilterID)
			if f == nil || f.Values == nil {
				continue
			}
			if p.PartKey >= len(split.PartValues) {
				continue
			}
			v := split.PartValues[p.PartKey]
			found := false
			for _, fv := range f.Values {
				if fv.Compare(v) == 0 {
					found = true
					break
				}
			}
			if !found {
				keep = false
				break
			}
		}
		if keep {
			kept = append(kept, split)
		}
	}
	return kept
}

func (s *ScanOp) scanSplit(split TableSplit) error {
	snap := split.Snap
	if snap == nil {
		var err error
		snap, err = acid.OpenSnapshotWith(s.FS, split.Loc, s.dataColumns(), split.Valid, s.Ctx.snapOpts())
		if err != nil {
			return err
		}
	}
	// Projection over the ACID file schema: meta first if requested, then
	// the stored data columns among s.Cols; partition columns are filled
	// from the split.
	var proj []int
	if s.Meta {
		proj = append(proj, acid.MetaWriteID, acid.MetaFileID, acid.MetaRowID)
	}
	type colSource struct {
		fromFile int // ordinal in the file read batch, -1 for partition col
		partIdx  int
	}
	srcs := make([]colSource, len(s.Cols))
	for i, c := range s.Cols {
		if c < s.dataColCount() {
			srcs[i] = colSource{fromFile: len(proj)}
			proj = append(proj, acid.NumMetaCols+c)
		} else {
			srcs[i] = colSource{fromFile: -1, partIdx: c - s.dataColCount()}
		}
	}
	emit := func(fb *vector.Batch) error {
		out := &vector.Batch{Sel: fb.Sel, N: fb.N}
		next := 0
		if s.Meta {
			out.Cols = append(out.Cols, fb.Cols[0], fb.Cols[1], fb.Cols[2])
			next = 3
		}
		for i := range s.Cols {
			src := srcs[i]
			if src.fromFile >= 0 {
				out.Cols = append(out.Cols, fb.Cols[src.fromFile])
				continue
			}
			// Partition key column: constant for the whole split.
			pv := types.NullOf(types.Unknown)
			if src.partIdx < len(split.PartValues) {
				pv = split.PartValues[src.partIdx]
			}
			pcol := vector.New(s.outTypes[next+i], capOf(fb))
			for r := 0; r < fb.N; r++ {
				pcol.Set(fb.RowIdx(r), pv)
			}
			out.Cols = append(out.Cols, pcol)
		}
		_ = next
		if len(s.RF) > 0 && s.Ctx != nil {
			out = s.applyRuntimeFilters(out)
			if out.N == 0 {
				return nil
			}
		}
		s.pending = append(s.pending, out)
		return nil
	}
	s.hintUpcoming(proj)
	if split.File != "" {
		return snap.ScanRange(acid.ScanRange{
			File: split.File, StripeLo: split.StripeLo, StripeHi: split.StripeHi,
		}, proj, s.Sarg, emit)
	}
	return snap.Scan(proj, s.Sarg, emit)
}

// hintUpcoming is the worker side of the elevator protocol (paper §5.1):
// before scanning the split it just claimed, a worker hints the stripe
// ranges of the next few unclaimed morsels to the elevator, so decode of
// upcoming stripes overlaps with execution of the current one. With the
// default one-stripe morsels, this — not the within-range window in
// scanFile — is what keeps the elevator ahead of a parallel scan.
const hintSplitsAhead = 2

func (s *ScanOp) hintUpcoming(proj []int) {
	if s.Ctx == nil || s.Ctx.Prefetch == nil {
		return
	}
	var upcoming []TableSplit
	if s.Shared != nil {
		upcoming = s.Shared.peek(hintSplitsAhead)
	} else if s.splitIdx < len(s.Splits) {
		upcoming = s.Splits[s.splitIdx:]
		if len(upcoming) > hintSplitsAhead {
			upcoming = upcoming[:hintSplitsAhead]
		}
	}
	for _, sp := range upcoming {
		// Directory splits (no refined stripe range) carry no snapshot to
		// prefetch through; opening one here would cost more than it saves.
		if sp.Snap == nil || sp.File == "" {
			continue
		}
		sp.Snap.PrefetchRange(acid.ScanRange{
			File: sp.File, StripeLo: sp.StripeLo, StripeHi: sp.StripeHi,
		}, proj, s.Sarg, hintSplitsAhead)
	}
}

// dataColumns returns the table's stored columns as an ORC schema.
func (s *ScanOp) dataColumns() []orc.Column {
	dataCols := make([]orc.Column, len(s.Table.Cols))
	for i, c := range s.Table.Cols {
		dataCols[i] = orc.Column{Name: c.Name, Type: c.Type}
	}
	return dataCols
}

func capOf(b *vector.Batch) int {
	if c := b.Capacity(); c > 0 {
		return c
	}
	return b.N
}

func (s *ScanOp) applyRuntimeFilters(b *vector.Batch) *vector.Batch {
	sel := make([]int, 0, b.N)
	for i := 0; i < b.N; i++ {
		r := b.RowIdx(i)
		ok := true
		for _, bind := range s.RF {
			f := s.Ctx.Filter(bind.FilterID)
			if f == nil {
				continue
			}
			d := b.Cols[bind.OutCol].Get(r)
			if d.Null {
				ok = false
				break
			}
			if f.Min.K != types.Unknown && (d.Compare(f.Min) < 0 || d.Compare(f.Max) > 0) {
				ok = false
				break
			}
			if f.Bloom != nil && !f.Bloom.MayContain(d.Hash()) {
				ok = false
				break
			}
		}
		if ok {
			sel = append(sel, r)
		}
	}
	return &vector.Batch{Cols: b.Cols, Sel: sel, N: len(sel)}
}

// Close implements Operator.
func (s *ScanOp) Close() error { return nil }

// Child implements Node.
func (s *ScanOp) Child(int) *Operator { return nil }

// Describe implements Node.
func (s *ScanOp) Describe(b *strings.Builder) {
	if s.Shared != nil {
		fmt.Fprintf(b, "TableScan table=%s splits=%d shared-queue", s.Table.Name, len(s.Shared.splits))
		return
	}
	fmt.Fprintf(b, "TableScan table=%s splits=%d", s.Table.Name, len(s.Splits))
}

// Stage implements Node: a scan is map work, a vertex with no shuffle.
func (s *ScanOp) Stage() Stage { return StageVertex }

// Delivers implements the property fact: whole-directory splits of a scan
// that projects every partition key column are value-disjoint on those
// columns. Partitioning[k] is the output ordinal of partition key k — the
// provenance the partition-wise agg and join placements match keys against.
func (s *ScanOp) Delivers() plan.Properties {
	if !wholeDirSplits(s) {
		return plan.Properties{}
	}
	metaOff := 0
	if s.Meta {
		metaOff = 3
	}
	part := make([]int, len(s.Table.PartKeys))
	for k := range part {
		i := slices.Index(s.Cols, len(s.Table.Cols)+k)
		if i < 0 {
			return plan.Properties{}
		}
		part[k] = metaOff + i
	}
	return plan.Properties{Partitioning: part}
}

// clone copies the scan's plan-time configuration into a fresh operator.
func (s *ScanOp) clone() *ScanOp {
	return &ScanOp{
		FS: s.FS, Table: s.Table, Cols: s.Cols, Meta: s.Meta, Splits: s.Splits,
		Sarg: s.Sarg, RF: s.RF, Prune: s.Prune, Ctx: s.Ctx, Shared: s.Shared,
	}
}
