// Package txn implements the Hive transaction manager (paper §3.2): global
// TxnIds, per-table WriteIds, Snapshot Isolation via transaction lists,
// shared/exclusive locking at partition granularity, and optimistic
// first-commit-wins conflict resolution for update/delete write sets.
//
// In Hive this state lives in the Metastore RDBMS; here the manager is an
// in-process component that the metastore composes.
package txn

import (
	"fmt"
	"sort"
	"sync"
)

// Status of a transaction.
type Status uint8

// Transaction states.
const (
	StatusOpen Status = iota
	StatusCommitted
	StatusAborted
)

// OpKind distinguishes write-set entries for conflict detection: only
// updates and deletes conflict with each other; plain inserts never do.
type OpKind uint8

// Write-set operation kinds.
const (
	OpInsert OpKind = iota
	OpUpdate
	OpDelete
)

// writeSetEntry records that a transaction updated/deleted within a
// (table, partition) scope.
type writeSetEntry struct {
	table     string
	partition string
	kind      OpKind
}

type txnState struct {
	id       int64
	status   Status
	writeIds map[string]int64 // table -> allocated WriteId
	writeSet []writeSetEntry
	// commitSeq is a logical clock stamped at commit, used to decide
	// "committed after I began" during conflict detection.
	commitSeq int64
	beginSeq  int64
}

// writeRecord maps an allocated WriteId back to its transaction.
type writeRecord struct {
	writeID int64
	txnID   int64
}

// Snapshot is the logical snapshot a query reads under: the highest
// allocated TxnId at snapshot time (high watermark) plus the set of open
// and aborted transactions at or below it (paper §3.2).
type Snapshot struct {
	HighWater int64
	Invalid   map[int64]bool // open or aborted TxnIds <= HighWater
}

// ValidWriteIds is the per-table projection of a Snapshot: readers skip any
// row whose WriteId exceeds the high watermark or belongs to the invalid
// set. Keeping per-table lists keeps reader state small even when many
// transactions are open system-wide (paper §3.2).
type ValidWriteIds struct {
	Table     string
	HighWater int64
	Invalid   map[int64]bool
	// Aborted marks the subset of Invalid whose transactions have aborted.
	// An abort is final, so these write ids are permanently dead — unlike
	// still-open ids, which may yet commit. Readers use the distinction for
	// base-file selection: compaction excludes aborted data, so a compacted
	// base whose watermark only skips over aborted ids is safe to read,
	// while one covering a still-open (or invisible-but-committed) write is
	// not. Delete-delta loading prunes aborted deleters the same way.
	Aborted map[int64]bool
}

// Valid reports whether a row stamped with writeID is visible.
func (v ValidWriteIds) Valid(writeID int64) bool {
	if writeID > v.HighWater {
		return false
	}
	return !v.Invalid[writeID]
}

// AbortedWrite reports whether writeID belongs to an aborted transaction —
// permanently invisible, as opposed to merely invisible to this snapshot.
func (v ValidWriteIds) AbortedWrite(writeID int64) bool {
	return v.Aborted[writeID]
}

// ErrConflict is returned by Commit when first-commit-wins resolution
// aborts the transaction.
type ErrConflict struct {
	Txn       int64
	Table     string
	Partition string
}

func (e ErrConflict) Error() string {
	return fmt.Sprintf("txn %d: write-write conflict on %s/%s (first commit wins)", e.Txn, e.Table, e.Partition)
}

// Manager allocates transaction and write identifiers and tracks state.
type Manager struct {
	mu          sync.Mutex
	nextTxn     int64
	nextSeq     int64
	txns        map[int64]*txnState
	nextWriteID map[string]int64
	tableWrites map[string][]writeRecord
	committed   []*txnState // committed txns with non-empty write sets
	locks       *LockManager
}

// NewManager returns an empty transaction manager.
func NewManager() *Manager {
	return &Manager{
		txns:        make(map[int64]*txnState),
		nextWriteID: make(map[string]int64),
		tableWrites: make(map[string][]writeRecord),
		locks:       NewLockManager(),
	}
}

// Locks returns the lock manager.
func (m *Manager) Locks() *LockManager { return m.locks }

// Begin opens a transaction and returns its TxnId (monotonically
// increasing, Metastore-generated in Hive).
func (m *Manager) Begin() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTxn++
	m.nextSeq++
	m.txns[m.nextTxn] = &txnState{
		id:       m.nextTxn,
		writeIds: make(map[string]int64),
		beginSeq: m.nextSeq,
	}
	return m.nextTxn
}

// GetSnapshot captures the current transaction list: high watermark plus
// open/aborted transactions below it.
func (m *Manager) GetSnapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	inv := make(map[int64]bool)
	for id, st := range m.txns {
		if st.status != StatusCommitted {
			inv[id] = true
		}
	}
	return Snapshot{HighWater: m.nextTxn, Invalid: inv}
}

// AllocateWriteId returns the WriteId for txn on table, allocating a fresh
// one on first use. All records written by the same transaction to the same
// table share one WriteId.
func (m *Manager) AllocateWriteId(txnID int64, table string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.txns[txnID]
	if !ok || st.status != StatusOpen {
		return 0, fmt.Errorf("txn: %d is not open", txnID)
	}
	if w, ok := st.writeIds[table]; ok {
		return w, nil
	}
	m.nextWriteID[table]++
	w := m.nextWriteID[table]
	st.writeIds[table] = w
	m.tableWrites[table] = append(m.tableWrites[table], writeRecord{writeID: w, txnID: txnID})
	return w, nil
}

// AddWriteSet records an update/delete scope for conflict detection.
func (m *Manager) AddWriteSet(txnID int64, table, partition string, kind OpKind) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.txns[txnID]
	if !ok || st.status != StatusOpen {
		return fmt.Errorf("txn: %d is not open", txnID)
	}
	st.writeSet = append(st.writeSet, writeSetEntry{table: table, partition: partition, kind: kind})
	return nil
}

// Commit finishes the transaction, running first-commit-wins conflict
// detection: if another transaction committed an overlapping update/delete
// write set after this transaction began, this transaction aborts.
func (m *Manager) Commit(txnID int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.txns[txnID]
	if !ok {
		return fmt.Errorf("txn: unknown transaction %d", txnID)
	}
	if st.status != StatusOpen {
		return fmt.Errorf("txn: %d already %v", txnID, st.status)
	}
	for _, mine := range st.writeSet {
		if mine.kind == OpInsert {
			continue
		}
		for _, other := range m.committed {
			if other.commitSeq <= st.beginSeq {
				continue // committed before we began: visible, not a conflict
			}
			for _, theirs := range other.writeSet {
				if theirs.kind == OpInsert {
					continue
				}
				if theirs.table == mine.table && theirs.partition == mine.partition {
					st.status = StatusAborted
					m.locks.releaseAll(txnID)
					return ErrConflict{Txn: txnID, Table: mine.table, Partition: mine.partition}
				}
			}
		}
	}
	m.nextSeq++
	st.commitSeq = m.nextSeq
	st.status = StatusCommitted
	if len(st.writeSet) > 0 {
		m.committed = append(m.committed, st)
	}
	m.locks.releaseAll(txnID)
	return nil
}

// Abort marks the transaction aborted and releases its locks. Its WriteIds
// remain allocated and are excluded from every future snapshot.
func (m *Manager) Abort(txnID int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.txns[txnID]
	if !ok {
		return fmt.Errorf("txn: unknown transaction %d", txnID)
	}
	if st.status != StatusOpen {
		return fmt.Errorf("txn: %d already %v", txnID, st.status)
	}
	st.status = StatusAborted
	m.locks.releaseAll(txnID)
	return nil
}

// TxnStatus returns the current status of a transaction.
func (m *Manager) TxnStatus(txnID int64) (Status, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.txns[txnID]
	if !ok {
		return 0, false
	}
	return st.status, true
}

// GetValidWriteIds projects a snapshot onto one table (paper §3.2): the
// returned list has the table's WriteId high watermark and the invalid
// WriteIds (those of open/aborted transactions or of transactions above
// the snapshot's high watermark), with the aborted subset singled out so
// readers can tell permanently-dead writes from still-pending ones.
func (m *Manager) GetValidWriteIds(table string, snap Snapshot) ValidWriteIds {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := ValidWriteIds{Table: table, Invalid: make(map[int64]bool), Aborted: make(map[int64]bool)}
	for _, rec := range m.tableWrites[table] {
		if rec.writeID > out.HighWater {
			out.HighWater = rec.writeID
		}
		// An abort is final, so "aborted now" marks the write dead even if
		// the snapshot predates the abort (the data was never visible).
		aborted := false
		if st, ok := m.txns[rec.txnID]; ok && st.status == StatusAborted {
			aborted = true
		}
		if aborted {
			out.Invalid[rec.writeID] = true
			out.Aborted[rec.writeID] = true
			continue
		}
		if rec.txnID > snap.HighWater || snap.Invalid[rec.txnID] {
			out.Invalid[rec.writeID] = true
		}
	}
	return out
}

// CompactorValidWriteIds returns the WriteIds safe for compaction on a
// table: everything committed right now, with aborted ids listed as
// invalid. Open transactions bound the high watermark so in-flight data is
// never compacted.
func (m *Manager) CompactorValidWriteIds(table string) ValidWriteIds {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := ValidWriteIds{Table: table, Invalid: make(map[int64]bool), Aborted: make(map[int64]bool)}
	// High watermark: largest prefix of writeids whose txns are resolved.
	recs := append([]writeRecord(nil), m.tableWrites[table]...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].writeID < recs[j].writeID })
	for _, rec := range recs {
		st := m.txns[rec.txnID]
		switch st.status {
		case StatusOpen:
			return out
		case StatusAborted:
			out.Invalid[rec.writeID] = true
			out.Aborted[rec.writeID] = true
			out.HighWater = rec.writeID
		default:
			out.HighWater = rec.writeID
		}
	}
	return out
}
