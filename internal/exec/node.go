// The node contract: what a physical operator tells the planning passes
// about itself. Operator structs hold no runtime state before Open, so the
// operator tree already is the physical plan; property planning (props.go),
// DAG analysis and MR spill insertion (package dag), parallel placement
// (parallel.go, partjoin.go) and EXPLAIN walk it through the methods below
// and never name an operator kind to find its children. An Operator that
// does not implement Node is an opaque leaf to every pass.
//
// An operator states five facts, each once, next to its definition:
//
//  1. Child — its input slots, in data-flow order.
//  2. Describe — its own EXPLAIN line.
//  3. Stage — its role in the task DAG.
//  4. Delivers (optional) — the physical properties of its output; an
//     operator without the method delivers none.
//  5. streamed and cloneOver (optional, unexported) — the morsel-pipeline
//     operators, which transform one input a batch at a time and can be
//     copied per worker.
//
// hivelint's operator-node analyzer rejects an operator that owns an
// Operator field and does not implement Node: every pass would silently
// stop at it.
package exec

import (
	"strings"

	"repro/internal/plan"
)

// Node is the contract between a physical operator and the planning passes.
type Node interface {
	Operator
	// Child returns the operator's i-th input slot, nil past the last. The
	// slot is assignable: a pass that rewrites a subtree stores the result
	// through it.
	Child(i int) *Operator
	// Describe writes the operator's EXPLAIN line: no indentation, no
	// newline, no children.
	Describe(b *strings.Builder)
	// Stage reports the operator's role in the task DAG.
	Stage() Stage
}

// Stage is an operator's role in the task DAG (paper §2, §5).
type Stage uint8

const (
	// StageVertex marks an operator that runs as a DAG vertex of its own.
	StageVertex Stage = 1 << iota
	// StageBreaker marks a pipeline breaker: it consumes every input whole
	// before emitting, which is a shuffle boundary. MR mode materializes
	// each of its inputs to the file system.
	StageBreaker
	// StagePlaced marks a placement made after the DAG shape was taken: a
	// parallel exchange, whose children are worker copies of one pipeline
	// (or its template), or MR mode's materialization of a breaker input.
	// The planning passes run before placement and do not enter; EXPLAIN
	// renders the first child only.
	StagePlaced
	// StagePipelined streams batches through within its consumer's vertex.
	StagePipelined Stage = 0
)

// RewriteInputs stores f(input) into every input slot of op, for the
// planning passes: an operator that is not a Node, or is a placement, is
// opaque to them and left alone.
func RewriteInputs(op Operator, f func(Operator) Operator) {
	n, ok := op.(Node)
	if !ok || n.Stage()&StagePlaced != 0 {
		return
	}
	for i := 0; ; i++ {
		c := n.Child(i)
		if c == nil {
			return
		}
		if *c != nil {
			*c = f(*c)
		}
	}
}

// The three Child shapes.

func oneChild(i int, c *Operator) *Operator {
	if i == 0 {
		return c
	}
	return nil
}

func twoChildren(i int, left, right *Operator) *Operator {
	if i == 0 {
		return left
	}
	return oneChild(i-1, right)
}

func nthChild(i int, inputs []Operator) *Operator {
	if i < len(inputs) {
		return &inputs[i]
	}
	return nil
}

// pipelineOp is fact 5: a stateless per-batch operator of a morsel pipeline.
type pipelineOp interface {
	// streamed returns the input whose batches the operator transforms one
	// at a time, nil when it has none: right/full outer joins emit their
	// unmatched build rows in a global pass, nested-loop probes have no
	// hash table to share.
	streamed() Operator
	// cloneOver copies the operator over a new streamed input, sharing
	// compiled expressions (pure), stats counters (atomic) and whatever
	// cross-worker state the planner attached.
	cloneOver(in Operator) Operator
}

// streamedInput steps one operator down a morsel pipeline; nil at its
// source. It is the one chain walker: every pass over a pipeline is a loop
// on it.
func streamedInput(op Operator) Operator {
	if p, ok := op.(pipelineOp); ok {
		return p.streamed()
	}
	return nil
}

// pipelineSource returns the operator the pipeline's batches come from.
func pipelineSource(op Operator) Operator {
	for in := streamedInput(op); in != nil; in = streamedInput(op) {
		op = in
	}
	return op
}

// firstJoin returns the topmost hash join of the pipeline, nil without one.
func firstJoin(op Operator) *HashJoinOp {
	for ; op != nil; op = streamedInput(op) {
		if j, ok := op.(*HashJoinOp); ok {
			return j
		}
	}
	return nil
}

// clonePipeline is the one clone routine: it copies the pipeline operators
// above the source and lets the caller substitute the source itself.
func clonePipeline(op Operator, source func(Operator) Operator) Operator {
	if in := streamedInput(op); in != nil {
		return op.(pipelineOp).cloneOver(clonePipeline(in, source))
	}
	return source(op)
}

// DeliveredProps derives the physical properties an operator tree's output
// stream is guaranteed to satisfy. The derivation is conservative: an
// operator that does not say delivers nothing.
func DeliveredProps(op Operator) plan.Properties {
	if d, ok := op.(interface{ Delivers() plan.Properties }); ok {
		return d.Delivers()
	}
	return plan.Properties{}
}

// orderOf is Delivers for operators that keep their input's row order and
// nothing else.
func orderOf(in Operator) plan.Properties {
	return plan.Properties{Ordering: DeliveredProps(in).Ordering}
}
