package exec

import (
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// toyPassOp is a pass-through operator no other file knows: the node
// contract alone makes every planning pass handle it.
type toyPassOp struct{ In Operator }

func (p *toyPassOp) Types() []types.T             { return p.In.Types() }
func (p *toyPassOp) Open() error                  { return p.In.Open() }
func (p *toyPassOp) Next() (*vector.Batch, error) { return p.In.Next() }
func (p *toyPassOp) Close() error                 { return p.In.Close() }
func (p *toyPassOp) Child(i int) *Operator        { return oneChild(i, &p.In) }
func (p *toyPassOp) Describe(b *strings.Builder)  { b.WriteString("ToyPass") }
func (p *toyPassOp) Stage() Stage                 { return StagePipelined }

// toyOpaqueOp is the same operator without the contract: an opaque leaf.
type toyOpaqueOp struct{ In Operator }

func (o *toyOpaqueOp) Types() []types.T             { return o.In.Types() }
func (o *toyOpaqueOp) Open() error                  { return o.In.Open() }
func (o *toyOpaqueOp) Next() (*vector.Batch, error) { return o.In.Next() }
func (o *toyOpaqueOp) Close() error                 { return o.In.Close() }

// sortedTwice is Sort(k) over Sort(k): the outer sort is satisfied.
func sortedTwice() *SortOp {
	keys := []plan.SortKey{{Col: 0}}
	return &SortOp{Input: &SortOp{Input: testValues(bigints(2)...), Keys: keys}, Keys: keys}
}

func TestNodeContractCarriesToyOperator(t *testing.T) {
	toy := &toyPassOp{In: sortedTwice()}
	want := "ToyPass\n  Sort keys=[$0]\n    Sort keys=[$0]\n      Values rows=0\n"
	if got := ExplainPhysical(toy); got != want {
		t.Errorf("ExplainPhysical:\n%s\nwant:\n%s", got, want)
	}
	inner := toy.In.(*SortOp).Input
	if got := ApplyProperties(toy); got != Operator(toy) || toy.In != inner {
		t.Errorf("ApplyProperties did not elide the satisfied sort beneath the toy:\n%s", ExplainPhysical(got))
	}

	w := newTestWarehouse(t)
	ctx := NewContext()
	toy = &toyPassOp{In: w.salesScan(ctx)}
	got, changed := Parallelize(toy, ctx, 4)
	if _, ok := toy.In.(*ParallelOp); !changed || got != Operator(toy) || !ok {
		t.Errorf("Parallelize did not place the scan beneath the toy:\n%s", ExplainPhysical(got))
	}
	rows, err := Drain(got)
	if err != nil || len(rows) == 0 {
		t.Errorf("toy over the exchange: %d rows, err %v", len(rows), err)
	}
}

func TestOperatorWithoutContractIsOpaqueLeaf(t *testing.T) {
	sorts := sortedTwice()
	opaque := &toyOpaqueOp{In: sorts}
	if got, want := ExplainPhysical(opaque), "*exec.toyOpaqueOp\n"; got != want {
		t.Errorf("ExplainPhysical: %q, want %q", got, want)
	}
	if ApplyProperties(opaque); opaque.In != Operator(sorts) {
		t.Error("ApplyProperties rewrote beneath an operator that does not describe its inputs")
	}

	w := newTestWarehouse(t)
	ctx := NewContext()
	scan := w.salesScan(ctx)
	opaque = &toyOpaqueOp{In: scan}
	if _, changed := Parallelize(opaque, ctx, 4); changed || opaque.In != Operator(scan) {
		t.Error("Parallelize placed beneath an operator that does not describe its inputs")
	}
}
