// Fixture for the no-row-boxing analyzer: a miniature exec package with a
// Batch whose Row method boxes, called inside and outside loops.
package exec

type Datum struct{ I int64 }

type Batch struct {
	Cols [][]int64
	N    int
}

// Row boxes live row i.
func (b *Batch) Row(i int) []Datum {
	out := make([]Datum, len(b.Cols))
	for c, col := range b.Cols {
		out[c] = Datum{I: col[i]}
	}
	return out
}

// Other types may have a Row method; only Batch's boxes.
type cursor struct{}

func (cursor) Row(i int) int { return i }

// drainBoxed is the pattern: one boxed row per live row.
func drainBoxed(b *Batch) [][]Datum {
	var out [][]Datum
	for i := 0; i < b.N; i++ {
		out = append(out, b.Row(i)) // want "boxes a row per loop iteration"
	}
	return out
}

// rangeBoxed does the same through range loops, nested and in a closure.
func rangeBoxed(bs []*Batch) int {
	n := 0
	for _, b := range bs {
		n += len(b.Row(0)) // want "boxes a row per loop iteration"
		func() {
			n += len(b.Row(1)) // want "boxes a row per loop iteration"
		}()
	}
	return n
}

// firstRow boxes once, outside any loop: allowed.
func firstRow(b *Batch) []Datum {
	return b.Row(0)
}

// loopOverOther calls a different Row inside a loop: allowed.
func loopOverOther(c cursor, n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += c.Row(i)
	}
	return s
}

// excused carries the annotated suppression the real tree uses.
func excused(b *Batch) [][]Datum {
	var out [][]Datum
	for i := 0; i < b.N; i++ {
		//lint:ignore no-row-boxing fixture: a row store kept boxed until its follow-up
		out = append(out, b.Row(i))
	}
	return out
}

// Operator is the fixture's operator contract.
type Operator interface {
	Next() (*Batch, error)
}

// boxedSort is the pattern: an operator that materializes its input as
// boxed rows.
type boxedSort struct {
	in   Operator
	rows [][]Datum // want "keeps boxed rows in field rows"
	n    int
}

func (s *boxedSort) Next() (*Batch, error) { return s.in.Next() }

// columnarSort holds columns: allowed.
type columnarSort struct {
	in   Operator
	cols [][]int64
	row  []Datum
}

func (s *columnarSort) Next() (*Batch, error) { return s.in.Next() }

// rowHeap keeps boxed rows but is not an operator: allowed.
type rowHeap struct {
	rows [][]Datum
}

// literalRows carries the annotated suppression the real tree uses.
type literalRows struct {
	//lint:ignore no-row-boxing fixture: rows that arrive boxed from outside the engine
	rows [][]Datum
}

func (l *literalRows) Next() (*Batch, error) { return nil, nil }
