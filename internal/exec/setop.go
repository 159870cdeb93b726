package exec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// rowKey renders a row as a collision-free map key (length-prefixed).
func rowKey(row []types.Datum) string {
	var b strings.Builder
	for _, d := range row {
		if d.Null {
			b.WriteString("n|")
			continue
		}
		s := d.String()
		b.WriteString(strconv.Itoa(int(d.K)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

// UnionAllOp concatenates its inputs.
type UnionAllOp struct {
	Inputs []Operator
	cur    int
}

// Types implements Operator.
func (u *UnionAllOp) Types() []types.T { return u.Inputs[0].Types() }

// Open implements Operator.
func (u *UnionAllOp) Open() error {
	u.cur = 0
	for _, in := range u.Inputs {
		if err := in.Open(); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Operator.
func (u *UnionAllOp) Next() (*vector.Batch, error) {
	for u.cur < len(u.Inputs) {
		b, err := u.Inputs[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.cur++
	}
	return nil, nil
}

// Close implements Operator.
func (u *UnionAllOp) Close() error {
	var first error
	for _, in := range u.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Child implements Node.
func (u *UnionAllOp) Child(i int) *Operator { return nthChild(i, u.Inputs) }

// Describe implements Node.
func (u *UnionAllOp) Describe(b *strings.Builder) { b.WriteString("UnionAll") }

// Stage implements Node.
func (u *UnionAllOp) Stage() Stage { return StagePipelined }

// SetOpOp implements UNION [DISTINCT], INTERSECT [ALL] and EXCEPT [ALL]
// using row-count maps (paper §3.1: set operations were among the SQL gaps
// closed after Hive 1.2).
type SetOpOp struct {
	Kind  plan.SetOpKind
	All   bool
	Left  Operator
	Right Operator
	Ctx   *Context

	//lint:ignore no-row-boxing set operations count rows by a string key of the boxed row and emit what they kept; the follow-up that hashes the vectors makes this columnar
	out     [][]types.Datum
	done    bool
	emitted int
}

// Types implements Operator.
func (s *SetOpOp) Types() []types.T { return s.Left.Types() }

// Open implements Operator.
func (s *SetOpOp) Open() error {
	s.out, s.done, s.emitted = nil, false, 0
	if err := s.Left.Open(); err != nil {
		return err
	}
	return s.Right.Open()
}

func drainCounts(ctx *Context, op Operator) (map[string]int64, map[string][]types.Datum, []string, error) {
	counts := map[string]int64{}
	sample := map[string][]types.Datum{}
	var order []string
	for {
		if err := ctx.CheckCanceled(); err != nil {
			return nil, nil, nil, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, nil, nil, err
		}
		if b == nil {
			return counts, sample, order, nil
		}
		for i := 0; i < b.N; i++ {
			//lint:ignore no-row-boxing set operations count rows by a string key of the boxed row; follow-up: hash the vectors like the join table does
			row := b.Row(i)
			k := rowKey(row)
			if counts[k] == 0 {
				sample[k] = row
				order = append(order, k)
			}
			counts[k]++
		}
	}
}

func (s *SetOpOp) compute() error {
	lCounts, lRows, lOrder, err := drainCounts(s.Ctx, s.Left)
	if err != nil {
		return err
	}
	rCounts, rRows, rOrder, err := drainCounts(s.Ctx, s.Right)
	if err != nil {
		return err
	}
	for _, k := range lOrder {
		lc, rc := lCounts[k], rCounts[k]
		var n int64
		switch s.Kind {
		case plan.Union:
			n = 1 // UNION DISTINCT; UNION ALL is UnionAllOp
		case plan.Intersect:
			if s.All {
				n = min64(lc, rc)
			} else if rc > 0 {
				n = 1
			}
		case plan.Except:
			if s.All {
				n = lc - rc
			} else if rc == 0 {
				n = 1
			}
		}
		for i := int64(0); i < n; i++ {
			s.out = append(s.out, lRows[k])
		}
	}
	// UNION DISTINCT also emits right-only rows.
	if s.Kind == plan.Union {
		for _, k := range rOrder {
			if lCounts[k] == 0 {
				s.out = append(s.out, rRows[k])
			}
		}
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Next implements Operator.
func (s *SetOpOp) Next() (*vector.Batch, error) {
	if !s.done {
		if err := s.compute(); err != nil {
			return nil, err
		}
		s.done = true
	}
	if s.emitted >= len(s.out) {
		return nil, nil
	}
	n := len(s.out) - s.emitted
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	b := vector.NewBatch(s.Types(), n)
	for i := 0; i < n; i++ {
		for c, d := range s.out[s.emitted+i] {
			b.Cols[c].Set(i, d)
		}
	}
	b.N = n
	s.emitted += n
	return b, nil
}

// Close implements Operator.
func (s *SetOpOp) Close() error {
	s.out = nil
	if err := s.Left.Close(); err != nil {
		s.Right.Close()
		return err
	}
	return s.Right.Close()
}

// Child implements Node.
func (s *SetOpOp) Child(i int) *Operator { return twoChildren(i, &s.Left, &s.Right) }

// Describe implements Node.
func (s *SetOpOp) Describe(b *strings.Builder) { fmt.Fprintf(b, "SetOp kind=%v", s.Kind) }

// Stage implements Node: the row-count maps consume both inputs whole, but
// the operator runs inside its consumer's vertex.
func (s *SetOpOp) Stage() Stage { return StageBreaker }
