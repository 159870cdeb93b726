// Fixture for the snapshot-pinning analyzer: a miniature transaction
// manager with the GetSnapshot/GetValidWriteIds surface, a query.execute
// zone root, and a second configured root (snapshot.query.renamedAway) that
// no function here answers to.
package snapshot // want "zone root snapshot.query.renamedAway matches no function"

type Snapshot struct{ id int64 }

type Txns struct{ next int64 }

func (t *Txns) GetSnapshot() *Snapshot { t.next++; return &Snapshot{id: t.next} }

func (t *Txns) GetValidWriteIds(name string, s *Snapshot) []int64 { return nil }

type query struct{}

// execute is a configured zone root: everything it reaches runs below the
// pinning frontier.
func (q *query) execute(t *Txns) {
	fresh := t.GetSnapshot() // want "opens a fresh snapshot"
	scanAll(t)
	scanPinned(t, fresh)
}

// scanAll re-derives visibility with no pinned snapshot in scope.
func scanAll(t *Txns) {
	_ = t.GetValidWriteIds("t", nil) // want "without a pinned Snapshot parameter"
}

// scanPinned threads the pinned snapshot: allowed.
func scanPinned(t *Txns, snap *Snapshot) {
	_ = t.GetValidWriteIds("t", snap)
}

// outsideZone is unreachable from any zone root; a fresh snapshot here is
// the pinning frontier itself.
func outsideZone(t *Txns) *Snapshot {
	return t.GetSnapshot()
}
