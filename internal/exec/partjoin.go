// Partition-wise hash join (props.go payday 3): when both join sides scan
// tables partitioned on the join keys — every partition column linked to
// the other side by a key equality — co-partitioned directory pairs form
// independent join units. Each unit builds its own small hash table from
// just its right-side directory and probes just its left-side directory,
// so there is no shared build, no build barrier across workers, and no
// exchange: the unit IS the shuffle the storage layout already performed.
// Workers steal whole units from a shared counter; output is the
// concatenation of unit outputs in arrival order, set-equal to the
// shared-build plan (row order across units is nondeterministic, as in
// any exchange).
package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// joinUnit is one co-partitioned pair: left and right splits that agree on
// every linked partition value. Right may be empty for Left/Anti joins —
// the left rows must still probe an empty build.
type joinUnit struct {
	left  []TableSplit
	right []TableSplit
}

// PartitionJoinOp executes a hash join (possibly under a Filter/Project
// chain) as independent per-partition units. Pipeline is the split-less
// template; each unit instantiates it with its own splits on both join
// sides and runs it serially.
type PartitionJoinOp struct {
	Pipeline Operator
	Units    []joinUnit
	DOP      int
	Ctx      *Context

	outTypes []types.T

	exchange
	out  chan *vector.Batch
	next atomic.Int64
}

// Types implements Operator.
func (j *PartitionJoinOp) Types() []types.T {
	if j.outTypes == nil {
		j.outTypes = j.Pipeline.Types()
	}
	return j.outTypes
}

// Open implements Operator. Workers launch at first Next, like every
// exchange, so upstream runtime-filter publishers run first.
func (j *PartitionJoinOp) Open() error {
	j.reset()
	j.out = nil
	j.next.Store(0)
	return nil
}

func (j *PartitionJoinOp) workersWanted() int {
	n := j.DOP
	if len(j.Units) < n {
		n = len(j.Units)
	}
	return n
}

func (j *PartitionJoinOp) start() {
	n := j.begin(j.Ctx, j.workersWanted())
	j.out = make(chan *vector.Batch, 2*n)
	for w := 0; w < n; w++ {
		j.wg.Add(1)
		go func() {
			defer j.wg.Done()
			j.runWorker()
		}()
	}
	go func() {
		j.wg.Wait()
		close(j.out)
	}()
}

// runWorker steals units until none remain, running each unit's pipeline
// to completion. The per-unit join closes before the next steal, so at
// most one build table per worker is resident at a time.
func (j *PartitionJoinOp) runWorker() {
	for {
		select {
		case <-j.done:
			return
		default:
		}
		i := int(j.next.Add(1) - 1)
		if i >= len(j.Units) {
			return
		}
		if err := j.runUnit(j.Units[i]); err != nil {
			j.fail(err)
			return
		}
	}
}

func (j *PartitionJoinOp) runUnit(u joinUnit) error {
	op := j.unitPipeline(u)
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	for {
		select {
		case <-j.done:
			return nil
		default:
		}
		if err := j.Ctx.CheckCanceled(); err != nil {
			return err
		}
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		select {
		case j.out <- b:
		case <-j.done:
			return nil
		}
	}
}

// Next implements Operator.
func (j *PartitionJoinOp) Next() (*vector.Batch, error) {
	if !j.started {
		j.start()
	}
	if b, ok := <-j.out; ok {
		return b, nil
	}
	return nil, j.firstErr()
}

// Close implements Operator. Unit pipelines close inside the workers; only
// the template (never opened) and the exchange remain.
//
//lint:ignore close-and-cancel Pipeline is a never-opened template; the clones made from it close inside runUnit
func (j *PartitionJoinOp) Close() error {
	j.shutdown()
	return nil
}

// Child implements Node: the never-opened template.
func (j *PartitionJoinOp) Child(i int) *Operator { return oneChild(i, &j.Pipeline) }

// Describe implements Node.
func (j *PartitionJoinOp) Describe(b *strings.Builder) {
	fmt.Fprintf(b, "PartitionJoin kind=%s units=%d workers=%d", firstJoin(j.Pipeline).Kind, len(j.Units), j.workersWanted())
}

// Stage implements Node.
func (j *PartitionJoinOp) Stage() Stage { return StagePlaced }

// unitPipeline copies the template for one unit: the base scan of each join
// side reads the unit's own split list — no shared queue, the unit owns its
// splits outright.
func (j *PartitionJoinOp) unitPipeline(u joinUnit) Operator {
	op := clonePipeline(j.Pipeline, scanSplits(u.left))
	hj := firstJoin(op)
	hj.Right = clonePipeline(hj.Right, scanSplits(u.right))
	return op
}

func scanSplits(splits []TableSplit) func(Operator) Operator {
	return func(src Operator) Operator {
		c := src.(*ScanOp).clone()
		c.Splits = splits
		return c
	}
}

// partitionJoin recognizes a pipeline whose hash join has both sides
// scanning tables value-partitioned on the join keys, and rewrites it into
// a PartitionJoinOp. Requirements, each tied to the set-equivalence or
// publish-once arguments in the package comment:
//
//   - probe-side kinds only (Inner/Left/Semi/Anti): right/full outer need
//     a global unmatched-build pass;
//   - no BuildFilter: the runtime filter publishes once, but every unit
//     would build;
//   - both sides are single-input chains over a scan delivering its
//     partitioning (whole-directory splits) with no dynamic partition
//     pruning bound (pruning decides on the shared queue; units pre-assign
//     splits);
//   - the key equalities link EVERY partition column of both sides: rows
//     with equal keys then agree on all partition values, so all matches
//     live inside one co-partitioned unit.
func (p *parallelizer) partitionJoin(op Operator) (Operator, bool) {
	x := firstJoin(op)
	if !p.ctx.propsOn() || x == nil {
		return nil, false
	}
	switch x.Kind {
	case plan.Inner, plan.Left, plan.Semi, plan.Anti:
	default:
		return nil, false
	}
	if x.BuildFilter != nil || len(x.LeftKeys) == 0 || x.Right == nil {
		return nil, false
	}
	// A nested join disqualifies: a unit clone would re-run its build per
	// unit.
	if firstJoin(x.Left) != nil || firstJoin(x.Right) != nil {
		return nil, false
	}
	ls, lpart, lok := partitionedScan(x.Left)
	rs, rpart, rok := partitionedScan(x.Right)
	if !lok || !rok || len(ls.Prune) > 0 || len(rs.Prune) > 0 {
		return nil, false
	}
	// Collect linked partition-key pairs from bare-column key equalities.
	type link struct{ lpk, rpk int }
	var links []link
	lcov := map[int]bool{}
	rcov := map[int]bool{}
	for i := range x.LeftKeys {
		lc, ok1 := x.LeftKeys[i].ColRef()
		rc, ok2 := x.RightKeys[i].ColRef()
		lpk, rpk := slices.Index(lpart, lc), slices.Index(rpart, rc)
		if !ok1 || !ok2 || lpk < 0 || rpk < 0 {
			continue
		}
		links = append(links, link{lpk, rpk})
		lcov[lpk] = true
		rcov[rpk] = true
	}
	if len(lcov) != len(lpart) || len(rcov) != len(rpart) {
		return nil, false
	}
	// Co-partition the split lists on the linked values. Units are created
	// in left-split order for a deterministic plan; right splits without a
	// left counterpart can never produce output for these kinds.
	ukey := func(sp TableSplit, leftSide bool) string {
		var b strings.Builder
		for _, l := range links {
			pk := l.rpk
			if leftSide {
				pk = l.lpk
			}
			b.WriteString(partValueKey(sp.PartValues, pk))
		}
		return b.String()
	}
	order := []string{}
	units := map[string]*joinUnit{}
	for _, sp := range ls.Splits {
		k := ukey(sp, true)
		u, seen := units[k]
		if !seen {
			u = &joinUnit{}
			units[k] = u
			order = append(order, k)
		}
		u.left = append(u.left, sp)
	}
	for _, sp := range rs.Splits {
		if u, seen := units[ukey(sp, false)]; seen {
			u.right = append(u.right, sp)
		}
	}
	var list []joinUnit
	for _, k := range order {
		u := units[k]
		if len(u.right) == 0 && (x.Kind == plan.Inner || x.Kind == plan.Semi) {
			continue // no build rows: these kinds emit nothing
		}
		list = append(list, *u)
	}
	if len(list) < 2 {
		return nil, false
	}
	return &PartitionJoinOp{Pipeline: op, Units: list, DOP: p.dop, Ctx: p.ctx}, true
}

// partValueKey encodes one partition value for unit grouping; kind is
// included so the encoding never collides across types.
func partValueKey(vals []types.Datum, pk int) string {
	if pk >= len(vals) {
		return "?;"
	}
	d := vals[pk]
	if d.Null {
		return "n;"
	}
	return fmt.Sprintf("%d:%d:%g:%s;", d.K, d.I, d.F, d.S)
}
