package exec

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// CompiledAgg is one aggregate with its compiled argument.
type CompiledAgg struct {
	Fn       string
	Arg      *CompiledExpr // nil for COUNT(*)
	Distinct bool
	T        types.T
}

// HashAggOp groups rows and computes aggregates, including grouping sets:
// each input row is fed once per grouping set with the non-set columns
// masked to NULL, and a __grouping_id column identifies the set
// (paper §3.1 advanced OLAP operations). Group state is memory-governed:
// when the query budget denies growth the accumulated groups spill to
// hash-partitioned scratch files and the drain re-aggregates one
// partition at a time (aggspill.go).
type HashAggOp struct {
	Input        Operator
	GroupExprs   []*CompiledExpr
	Aggs         []CompiledAgg
	GroupingSets [][]int
	Out          []types.T
	Ctx          *Context

	sink *spillAggTable
	done bool
}

type aggGroup struct {
	h      uint64 // bucket hash, kept for partial-aggregate merging
	keys   []types.Datum
	gid    int64
	states []aggState
}

// groupTable is a hash table of aggregation groups in insertion order. It
// serves both the serial HashAggOp and, as the thread-local partial and
// final tables, the two-phase ParallelHashAggOp.
type groupTable struct {
	groups map[uint64][]*aggGroup
	order  []*aggGroup
}

func newGroupTable() *groupTable {
	return &groupTable{groups: make(map[uint64][]*aggGroup)}
}

// groupSeed is the initial hash for a group key under a grouping id.
func groupSeed(gid int64) uint64 {
	return 1469598103934665603 ^ uint64(gid)*vector.HashPrime
}

// lookup locates the group for (h, gid, key values at row r), or nil;
// mask[c] false means column c is masked to NULL by the grouping set.
func (t *groupTable) lookup(h uint64, gid int64, keyCols []*vector.Vector, r int, mask []bool) *aggGroup {
	for _, g := range t.groups[h] {
		if g.gid == gid && groupKeysMatch(g.keys, keyCols, r, mask) {
			return g
		}
	}
	return nil
}

// lookupKeys locates the group for already-materialized key datums, or nil
// (partial-aggregate merging and spill-partition re-aggregation).
func (t *groupTable) lookupKeys(h uint64, gid int64, keys []types.Datum) *aggGroup {
	for _, g := range t.groups[h] {
		if g.gid == gid && datumsEqual(g.keys, keys) {
			return g
		}
	}
	return nil
}

// newAggGroup materializes a group's key datums (only when the group is
// actually created).
func newAggGroup(h uint64, gid int64, keyCols []*vector.Vector, r int, mask []bool, nAggs int) *aggGroup {
	keys := make([]types.Datum, len(keyCols))
	for c, kc := range keyCols {
		if mask == nil || mask[c] {
			keys[c] = kc.Get(r)
		} else {
			keys[c] = types.NullOf(kc.Type.Kind)
		}
	}
	return &aggGroup{h: h, keys: keys, gid: gid, states: make([]aggState, nAggs)}
}

func (t *groupTable) insert(g *aggGroup) {
	t.groups[g.h] = append(t.groups[g.h], g)
	t.order = append(t.order, g)
}

// mergeInto folds one complete group into t — equal keys merge aggregate
// states, new keys insert — and reports whether the group was inserted
// (so callers can account the new residency). Every merge in the engine
// (partial tables, re-read spill partitions, the partition-aligned final
// merge) goes through here.
func (t *groupTable) mergeInto(g *aggGroup, aggs []CompiledAgg) bool {
	if dst := t.lookupKeys(g.h, g.gid, g.keys); dst != nil {
		for ai := range aggs {
			dst.states[ai].merge(aggs[ai], &g.states[ai])
		}
		return false
	}
	t.insert(g)
	return true
}

// groupKeysMatch compares stored group keys against row r of the key
// vectors, directly on the columnar backing stores (Vector.EqDatum) — no
// per-row Datum materialization on the collision path. Masked columns are
// NULL on both sides by construction.
func groupKeysMatch(keys []types.Datum, keyCols []*vector.Vector, r int, mask []bool) bool {
	for c, kc := range keyCols {
		if mask != nil && !mask[c] {
			continue
		}
		if !kc.EqDatum(r, keys[c]) {
			return false
		}
	}
	return true
}

// emitBatch renders groups starting at ordinal start into a batch, or nil
// when exhausted.
func (t *groupTable) emitBatch(start int, out []types.T, aggs []CompiledAgg, gsets [][]int) *vector.Batch {
	if start >= len(t.order) {
		return nil
	}
	n := len(t.order) - start
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	b := vector.NewBatch(out, n)
	for i := 0; i < n; i++ {
		g := t.order[start+i]
		c := 0
		for _, k := range g.keys {
			b.Cols[c].Set(i, k)
			c++
		}
		for ai := range aggs {
			b.Cols[c].Set(i, g.states[ai].result(aggs[ai]))
			c++
		}
		if gsets != nil {
			b.Cols[c].Set(i, types.NewBigint(g.gid))
		}
	}
	b.N = n
	return b
}

type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	sumScale int
	min, max types.Datum
	distinct map[uint64][]types.Datum
	// dorder keeps the distinct values in arrival order. Spill encoding
	// and partial-state merging replay it instead of iterating the map, so
	// non-associative accumulations (SUM(DISTINCT) over DOUBLE) fold in a
	// deterministic order — the order the serial in-memory pass used.
	dorder []types.Datum
}

// Types implements Operator.
func (a *HashAggOp) Types() []types.T { return a.Out }

// Open implements Operator.
func (a *HashAggOp) Open() error {
	a.sink = newSpillAggTable(a.Ctx, a.Aggs, len(a.GroupExprs))
	a.done = false
	return a.Input.Open()
}

func (a *HashAggOp) consume() error {
	sets := a.GroupingSets
	if sets == nil {
		all := make([]int, len(a.GroupExprs))
		for i := range all {
			all[i] = i
		}
		sets = [][]int{all}
	}
	// Per-set column masks and grouping ids are row-independent.
	masks := make([][]bool, len(sets))
	gids := make([]int64, len(sets))
	for si, set := range sets {
		mask := make([]bool, len(a.GroupExprs))
		for _, c := range set {
			mask[c] = true
		}
		masks[si] = mask
		if a.GroupingSets != nil {
			for c, in := range mask {
				if !in {
					gids[si] |= 1 << uint(c)
				}
			}
		}
	}
	var colHash [][]uint64
	for {
		if err := a.Ctx.CheckCanceled(); err != nil {
			return err
		}
		b, err := a.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		keyCols := make([]*vector.Vector, len(a.GroupExprs))
		for i, g := range a.GroupExprs {
			v, err := g.Eval(b)
			if err != nil {
				return err
			}
			keyCols[i] = v
		}
		argCols := make([]*vector.Vector, len(a.Aggs))
		for i, ag := range a.Aggs {
			if ag.Arg != nil {
				v, err := ag.Arg.Eval(b)
				if err != nil {
					return err
				}
				argCols[i] = v
			}
		}
		// Raw per-column key hashes, column-at-a-time (no per-row datums).
		if colHash == nil {
			colHash = make([][]uint64, len(keyCols))
		}
		for c, kc := range keyCols {
			if cap(colHash[c]) < b.N {
				colHash[c] = make([]uint64, b.N)
			} else {
				colHash[c] = colHash[c][:b.N]
				for i := range colHash[c] {
					colHash[c][i] = 0
				}
			}
			kc.HashInto(b.Sel, b.N, colHash[c])
		}
		for i := 0; i < b.N; i++ {
			r := b.RowIdx(i)
			for si := range sets {
				mask := masks[si]
				gid := gids[si]
				h := groupSeed(gid)
				for c := range keyCols {
					if mask[c] {
						h = h*vector.HashPrime ^ colHash[c][i]
					} else {
						h = h*vector.HashPrime ^ vector.NullHash
					}
				}
				g, err := a.sink.findOrAdd(h, gid, keyCols, r, mask)
				if err != nil {
					return err
				}
				var extra int64
				for ai := range a.Aggs {
					var d types.Datum
					if argCols[ai] != nil {
						d = argCols[ai].Get(r)
					}
					extra += g.states[ai].update(a.Aggs[ai], d)
				}
				// Accounted only after every aggregate of the row applied:
				// noteStateGrowth may spill the table, and g must be
				// complete when it goes to disk.
				if extra > 0 {
					if err := a.sink.noteStateGrowth(extra); err != nil {
						return err
					}
				}
			}
		}
	}
	// Global aggregate with no input rows still emits one row.
	if len(a.GroupExprs) == 0 && a.sink.groupCount() == 0 {
		a.sink.addEmpty()
	}
	return a.sink.finish()
}

func datumsEqual(a, b []types.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Null != b[i].Null {
			return false
		}
		if !a[i].Null && a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// update folds one value into the state. It returns the estimated bytes
// the state grew by (DISTINCT value sets are the only unbounded part), so
// callers can account the growth against the memory governor.
func (s *aggState) update(ag CompiledAgg, d types.Datum) int64 {
	if ag.Arg != nil && d.Null {
		return 0 // SQL aggregates skip NULLs
	}
	var grew int64
	if ag.Distinct {
		if s.distinct == nil {
			s.distinct = make(map[uint64][]types.Datum)
			grew += 48
		}
		h := d.Hash()
		for _, seen := range s.distinct[h] {
			if seen.Compare(d) == 0 {
				return grew
			}
		}
		s.distinct[h] = append(s.distinct[h], d)
		s.dorder = append(s.dorder, d)
		grew += 2 * (datumBytes(d) + 24)
	}
	s.count++
	switch ag.Fn {
	case "sum", "avg":
		switch d.K {
		case types.Float64:
			s.sumF += d.F
		case types.Decimal:
			// Normalize to the widest scale seen.
			sc := d.DecimalScale()
			if sc > s.sumScale {
				s.sumI *= types.Pow10(sc - s.sumScale)
				s.sumScale = sc
			}
			s.sumI += d.I * types.Pow10(s.sumScale-sc)
			s.sumF += d.Float()
		default:
			s.sumI += d.I
			s.sumF += float64(d.I)
		}
	case "min":
		if s.min.K == types.Unknown || d.Compare(s.min) < 0 {
			s.min = d
		}
	case "max":
		if s.max.K == types.Unknown || d.Compare(s.max) > 0 {
			s.max = d
		}
	}
	return grew
}

// merge folds another partial state into s (two-phase parallel
// aggregation). Distinct states replay the other side's value set through
// update so deduplication and sums stay exact; plain states combine
// counts, sums (normalizing decimal scales) and extrema directly.
func (s *aggState) merge(ag CompiledAgg, o *aggState) {
	if ag.Distinct {
		for _, d := range o.dorder {
			s.update(ag, d)
		}
		return
	}
	s.count += o.count
	switch ag.Fn {
	case "sum", "avg":
		if o.sumScale > s.sumScale {
			s.sumI *= types.Pow10(o.sumScale - s.sumScale)
			s.sumScale = o.sumScale
		}
		s.sumI += o.sumI * types.Pow10(s.sumScale-o.sumScale)
		s.sumF += o.sumF
	case "min":
		if o.min.K != types.Unknown && (s.min.K == types.Unknown || o.min.Compare(s.min) < 0) {
			s.min = o.min
		}
	case "max":
		if o.max.K != types.Unknown && (s.max.K == types.Unknown || o.max.Compare(s.max) > 0) {
			s.max = o.max
		}
	}
}

func (s *aggState) result(ag CompiledAgg) types.Datum {
	switch ag.Fn {
	case "count":
		return types.NewBigint(s.count)
	case "sum":
		if s.count == 0 {
			return types.NullOf(ag.T.Kind)
		}
		switch ag.T.Kind {
		case types.Float64:
			return types.NewDouble(s.sumF)
		case types.Decimal:
			v := s.sumI
			if s.sumScale != ag.T.Scale {
				if s.sumScale < ag.T.Scale {
					v *= types.Pow10(ag.T.Scale - s.sumScale)
				} else {
					v /= types.Pow10(s.sumScale - ag.T.Scale)
				}
			}
			return types.NewDecimal(v, ag.T.Scale)
		default:
			return types.NewBigint(s.sumI)
		}
	case "avg":
		if s.count == 0 {
			return types.NullOf(types.Float64)
		}
		return types.NewDouble(s.sumF / float64(s.count))
	case "min":
		if s.min.K == types.Unknown {
			return types.NullOf(ag.T.Kind)
		}
		return s.min
	case "max":
		if s.max.K == types.Unknown {
			return types.NullOf(ag.T.Kind)
		}
		return s.max
	}
	return types.NullOf(types.Unknown)
}

// Next implements Operator.
func (a *HashAggOp) Next() (*vector.Batch, error) {
	if !a.done {
		if err := a.consume(); err != nil {
			return nil, err
		}
		a.done = true
	}
	out, err := a.sink.nextBatch(a.Out, a.GroupingSets)
	if err != nil || out == nil {
		return nil, err
	}
	return out, nil
}

// Close implements Operator.
func (a *HashAggOp) Close() error {
	a.sink.close()
	a.sink = nil
	return a.Input.Close()
}

// Child implements Node.
func (a *HashAggOp) Child(i int) *Operator { return oneChild(i, &a.Input) }

// Describe implements Node.
func (a *HashAggOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "HashAgg groups=%d", len(a.GroupExprs))
}

// Stage implements Node.
func (a *HashAggOp) Stage() Stage { return StageVertex | StageBreaker }

// Delivers implements the property fact.
func (a *HashAggOp) Delivers() plan.Properties { return groupsUnique(a.GroupExprs, a.GroupingSets) }

// groupsUnique is what a grouped aggregation delivers: one row per distinct
// group key, unless grouping sets repeat keys across sets.
func groupsUnique(groups []*CompiledExpr, sets [][]int) plan.Properties {
	if sets != nil || len(groups) == 0 {
		return plan.Properties{}
	}
	key := make([]int, len(groups))
	for i := range key {
		key[i] = i
	}
	return plan.Properties{Unique: [][]int{key}}
}

// CompileAggs compiles plan aggregate calls.
func CompileAggs(aggs []plan.AggCall, inTypes []types.T) ([]CompiledAgg, error) {
	out := make([]CompiledAgg, len(aggs))
	for i, a := range aggs {
		ca := CompiledAgg{Fn: a.Fn, Distinct: a.Distinct, T: a.T}
		if a.Arg != nil {
			e, err := Compile(a.Arg, inTypes)
			if err != nil {
				return nil, err
			}
			ca.Arg = e
		}
		out[i] = ca
	}
	return out, nil
}
