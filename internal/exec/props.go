// Property-driven physical planning (paper §4.1–4.2): every operator
// delivers physical properties — sort order, value partitioning,
// uniqueness (plan.Properties) — and consumers match required properties
// against delivered ones instead of unconditionally enforcing. Enforcers
// (Sort, exchange, shared hash tables) are inserted only when required ⊄
// delivered. The paydays wired through here:
//
//   - A SortOp whose input already delivers its keys disappears; a TopNOp
//     degrades to a plain LimitOp.
//   - ORDER BY over a window commutes with the window when the reorder
//     cannot change any function value: Sort(Window(X)) becomes
//     Window(Sort(X)), which the parallel planner then splits into
//     per-worker runs under a MergeOp — and the WindowOp, seeing its
//     input deliver the group's (partition, order) keys, skips its own
//     sort (window.go).
//   - Aggregations and joins whose keys cover a scan's partition columns
//     run partition-wise: worker partials are key-disjoint, so the final
//     merge appends without hash lookups (ParallelHashAggOp.Disjoint)
//     and co-partitioned joins build one small table per partition pair
//     with no shared build (PartitionJoinOp).
//
// Every rewrite here is byte-identical to the enforcer-everywhere plan;
// the conditions under which that holds are spelled out at each site and
// exercised by the property-equivalence suites against
// hive.planner.properties=false.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/types"
)

// projectProps remaps the input's properties through bare column
// references; anything computed loses its provenance.
func projectProps(p *ProjectOp) plan.Properties {
	in := DeliveredProps(p.Input)
	var out plan.Properties
	// inverse map: input ordinal -> first output ordinal referencing it.
	inv := map[int]int{}
	for o, e := range p.Exprs {
		if c, ok := e.ColRef(); ok {
			if _, dup := inv[c]; !dup {
				inv[c] = o
			}
		}
	}
	// Ordering survives as the longest remappable prefix.
	for _, k := range in.Ordering {
		o, ok := inv[k.Col]
		if !ok {
			break
		}
		out.Ordering = append(out.Ordering, plan.SortKey{Col: o, Desc: k.Desc, NullsFirst: k.NullsFirst})
	}
	// Partitioning survives only whole: dropping one partition column
	// breaks the "equal on these columns ⇒ same unit" promise.
	if len(in.Partitioning) > 0 {
		part := make([]int, 0, len(in.Partitioning))
		complete := true
		for _, c := range in.Partitioning {
			o, ok := inv[c]
			if !ok {
				complete = false
				break
			}
			part = append(part, o)
		}
		if complete {
			out.Partitioning = part
		}
	}
	return out
}

// partitionedScan returns a morsel pipeline's base scan and, for each of
// its partition keys, the pipeline output ordinal carrying it — defined when
// the scan's splits are whole directories and every partition key column
// survives to the output, which is exactly when the pipeline delivers a
// partitioning. This is the provenance the partition-wise join placement
// matches its keys against.
func partitionedScan(op Operator) (*ScanOp, []int, bool) {
	s, ok := pipelineSource(op).(*ScanOp)
	part := DeliveredProps(op).Partitioning
	return s, part, ok && len(part) > 0
}

// wholeDirSplits reports whether every split of the scan is a whole
// partition directory — one split per distinct partition value combination
// — which is what makes the split stream value-disjoint. Stripe-expanded
// splits break disjointness (two ranges of one directory can land on
// different workers).
func wholeDirSplits(s *ScanOp) bool {
	if s.Shared != nil {
		return false
	}
	for _, sp := range s.Splits {
		if sp.File != "" {
			return false
		}
	}
	return len(s.Splits) > 0
}

// ApplyProperties rewrites a physical tree bottom-up using delivered
// properties: sorts over already-ordered input disappear, TopN over
// ordered input degrades to Limit, and ORDER BY commutes below a window
// when the reorder is value-invariant. Every rewrite preserves the output
// byte for byte; run it before Parallelize so the parallel planner sees
// the property-shaped tree.
func ApplyProperties(op Operator) Operator {
	// Recurse first: children settle before the local match.
	RewriteInputs(op, ApplyProperties)
	switch x := op.(type) {
	case *SortOp:
		// Required ordering already delivered: a stable sort of ordered
		// input is the identity, so the enforcer adds nothing.
		if plan.OrderingSatisfies(DeliveredProps(x.Input).Ordering, x.Keys) {
			return x.Input
		}
		if rewritten, ok := pushSortThroughWindow(x); ok {
			return rewritten
		}
	case *TopNOp:
		// Ordered input turns top-N into a plain prefix: the bounded heap
		// would retain exactly the first Offset+N rows (arrival breaks
		// ties) and emit them in input order.
		if x.N > 0 && plan.OrderingSatisfies(DeliveredProps(x.Input).Ordering, x.Keys) {
			return &LimitOp{Input: x.Input, N: x.N, Offset: x.Offset}
		}
	}
	return op
}

// pushSortThroughWindow rewrites Sort(Window(X)) — optionally with a
// column-remapping projection between — into Window(Sort(X)).
//
// Byte-identity argument: the window emits its input order, so the pushed
// plan emits X sorted stably by the keys; the enforcer plan sorts the
// window output (in X's arrival order) stably by the same keys — the same
// permutation. The function VALUES must also survive the input reorder,
// which holds per group when either
//
//   - every function is permutation-invariant — rank/dense_rank (peer
//     membership only), count/min/max, and exact (non-float) sums — or
//   - the sort keys are a subset of the group's partition+order columns:
//     rows tied on (partition, order) are then tied on every sort key, so
//     the stable sort preserves their arrival order and position-sensitive
//     functions (row_number, float accumulation order) see identical
//     sequences.
//
// The rewrite only fires when at least one group's own sort becomes
// skippable under the pushed ordering — otherwise it just moves work.
func pushSortThroughWindow(s *SortOp) (Operator, bool) {
	var w *WindowOp
	var proj *ProjectOp
	switch in := s.Input.(type) {
	case *WindowOp:
		w = in
	case *ProjectOp:
		if pw, ok := in.Input.(*WindowOp); ok {
			w, proj = pw, in
		}
	}
	if w == nil {
		return nil, false
	}
	inW := len(w.Input.Types())
	// Map the sort keys to window-input ordinals.
	keys := make([]plan.SortKey, len(s.Keys))
	for i, k := range s.Keys {
		col := k.Col
		if proj != nil {
			c, ok := proj.Exprs[col].ColRef()
			if !ok {
				return nil, false
			}
			col = c
		}
		if col >= inW {
			return nil, false // references a window function column
		}
		keys[i] = plan.SortKey{Col: col, Desc: k.Desc, NullsFirst: k.NullsFirst}
	}
	groups, err := buildWindowGroups(w.Fns, w.Input.Types())
	if err != nil {
		return nil, false
	}
	payoff := false
	for gi := range groups {
		g := &groups[gi]
		if !windowReorderSafe(g, w.Fns, keys) {
			return nil, false
		}
		if windowSortSatisfied(keys, g) {
			payoff = true
		}
	}
	if !payoff {
		return nil, false
	}
	w.Input = &SortOp{Input: w.Input, Keys: keys, Ctx: s.Ctx}
	return s.Input, true
}

// windowReorderSafe reports whether reordering the window's input by keys
// cannot change any of group g's computed values (see
// pushSortThroughWindow for the argument).
func windowReorderSafe(g *windowGroup, fns []plan.WindowFn, keys []plan.SortKey) bool {
	own := map[int]bool{}
	for _, c := range g.partitionBy {
		own[c] = true
	}
	for _, k := range g.orderBy {
		own[k.Col] = true
	}
	subset := true
	for _, k := range keys {
		if !own[k.Col] {
			subset = false
			break
		}
	}
	if subset {
		return true
	}
	for _, fi := range g.fnIdx {
		if !permutationInvariantFn(fns[fi]) {
			return false
		}
	}
	return true
}

// permutationInvariantFn reports whether a window function's values are
// unchanged under any reordering of its input: peer membership and
// partition membership are order-free, and the accumulation is exact and
// commutative. row_number depends on within-peer positions; avg and float
// sums accumulate in visit order.
func permutationInvariantFn(fn plan.WindowFn) bool {
	switch fn.Fn {
	case "rank", "dense_rank", "count", "min", "max":
		return true
	case "sum":
		return fn.T.Kind != types.Float64
	}
	return false
}

// windowSortSatisfied reports whether input delivered in this ordering
// lets group g skip its partition/order sort: the leading keys cover the
// partition columns (any permutation and direction — contiguity is all a
// partition needs), immediately followed by the exact order keys. Any
// further delivered keys only refine ties that the group's own stable
// sort would leave in arrival (= delivered) order anyway, so the skip is
// unconditionally byte-identical.
func windowSortSatisfied(delivered []plan.SortKey, g *windowGroup) bool {
	if len(g.partitionBy)+len(g.orderBy) == 0 {
		return false
	}
	m := plan.OrderingCoversSet(delivered, g.partitionBy)
	if m < 0 || len(delivered) < m+len(g.orderBy) {
		return false
	}
	for i, k := range g.orderBy {
		if delivered[m+i] != k {
			return false
		}
	}
	return true
}

// ExplainPhysical renders the prepared physical operator tree, one line
// per operator, annotating the property-driven decisions: which window
// groups skip their sort or share a partition pass, which exchanges are
// partition-wise, and where enforcers remain. Sessions expose it as
// LastPhysicalPlan; the golden-explain suite asserts on it.
func ExplainPhysical(op Operator) string {
	var b strings.Builder
	explainPhys(&b, op, 0)
	return b.String()
}

func explainPhys(b *strings.Builder, op Operator, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	n, ok := op.(Node)
	if !ok {
		// Not a Node (e.g. a federation scan): rendered opaque.
		fmt.Fprintf(b, "%T\n", op)
		return
	}
	n.Describe(b)
	b.WriteByte('\n')
	for i := 0; ; i++ {
		c := n.Child(i)
		if c == nil || i > 0 && n.Stage()&StagePlaced != 0 {
			return // a placement renders its first worker only
		}
		if *c != nil {
			explainPhys(b, *c, depth+1)
		}
	}
}

// explainWindow annotates the window's per-group plan: how many groups,
// how many arrive presorted (sort elided) and how many share a partition
// pass — the same classification computeResident will make.
func explainWindow(w *WindowOp) string {
	groups, err := buildWindowGroups(w.Fns, w.Input.Types())
	if err != nil {
		return fmt.Sprintf("fns=%d", len(w.Fns))
	}
	var delivered []plan.SortKey
	if w.Ctx.propsOn() {
		delivered = DeliveredProps(w.Input).Ordering
	}
	wp := planWindowGroups(groups, delivered, w.Ctx.propsOn())
	presorted := 0
	for _, p := range wp.presorted {
		if p {
			presorted++
		}
	}
	sharedGroups := 0
	for _, bucket := range wp.shared {
		sharedGroups += len(bucket)
	}
	out := fmt.Sprintf("fns=%d specs=%d", len(w.Fns), len(groups))
	if presorted > 0 {
		out += fmt.Sprintf(" presorted=%d", presorted)
	}
	if sharedGroups > 0 {
		out += fmt.Sprintf(" shared-partition-pass=%d(%d passes)", sharedGroups, len(wp.shared))
	}
	return out
}

func sortKeysDigest(keys []plan.SortKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.Digest()
	}
	return "[" + strings.Join(parts, ",") + "]"
}
