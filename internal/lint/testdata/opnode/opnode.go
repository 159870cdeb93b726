// Fixture for the operator-node analyzer: a miniature exec package
// declaring the Operator interface and the Node planning contract.
package exec

type Batch struct{ N int }

type Operator interface {
	Open() error
	Next() (*Batch, error)
	Close() error
}

type Node interface {
	Operator
	Child(i int) *Operator
	Describe() string
}

// base supplies the Operator methods so the fixture types stay short.
type base struct{}

func (base) Open() error           { return nil }
func (base) Next() (*Batch, error) { return nil, nil }
func (base) Close() error          { return nil }

// source is a true leaf: no inputs, so no contract is required.
type source struct {
	base
	rows int
}

// filter owns an input and describes itself: fine.
type filter struct {
	base
	Input Operator
}

func (f *filter) Child(i int) *Operator {
	if i == 0 {
		return &f.Input
	}
	return nil
}
func (f *filter) Describe() string { return "Filter" }

// wrapper owns an input and forgot the contract.
type wrapper struct { // want "wrapper owns operator input Input but does not implement Node"
	base
	Input Operator
}

// fanIn owns a slice of inputs, and half a contract is no contract.
type fanIn struct { // want "fanIn owns operator input Left, Rest but does not implement Node"
	base
	Left Operator
	Rest []Operator
}

func (f *fanIn) Describe() string { return "FanIn" }

// runtimeOnly is built and consumed inside another operator's Next, never
// part of a plan: the deliberate exception carries its reason.
//
//lint:ignore operator-node built at run time inside its owner's Next; never in a planned tree
type runtimeOnly struct {
	base
	Input Operator
}

// holder is not an Operator at all; its field is none of the analyzer's
// business.
type holder struct{ Input Operator }
