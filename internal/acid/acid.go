// Package acid implements Hive's transactional table layout (paper §3.2):
// each table or partition directory holds base and delta stores. Inserts
// create delta_W_W directories, deletes create delete_delta_W_W directories
// (an update is a delete plus an insert), and compaction merges them.
//
// Every record carries three system columns — WriteId, FileId, RowId —
// whose combination uniquely identifies it. A delete is an insert of a
// labeled record pointing at the unique identifier of the deleted record;
// readers anti-join base and insert deltas against the delete deltas that
// apply to their WriteId range.
package acid

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Positions of the ACID system columns in every stored file.
const (
	MetaWriteID = 0
	MetaFileID  = 1
	MetaRowID   = 2
	NumMetaCols = 3
)

// MetaColumns returns the schema of the three system columns.
func MetaColumns() []orc.Column {
	return []orc.Column{
		{Name: "__writeid", Type: types.TBigint},
		{Name: "__fileid", Type: types.TBigint},
		{Name: "__rowid", Type: types.TBigint},
	}
}

// FullSchema prepends the system columns to a table's data columns.
func FullSchema(dataCols []orc.Column) []orc.Column {
	return append(MetaColumns(), dataCols...)
}

// RowKey uniquely identifies a record in a table (paper §3.2).
type RowKey struct {
	WriteID int64
	FileID  int64
	RowID   int64
}

type dirKind uint8

const (
	kindBase dirKind = iota
	kindDelta
	kindDeleteDelta
)

type storeDir struct {
	kind     dirKind
	min, max int64
	path     string
}

func baseDirName(w int64) string        { return fmt.Sprintf("base_%07d", w) }
func deltaDirName(lo, hi int64) string  { return fmt.Sprintf("delta_%07d_%07d", lo, hi) }
func deleteDirName(lo, hi int64) string { return fmt.Sprintf("delete_delta_%07d_%07d", lo, hi) }

func parseStoreDir(path string) (storeDir, bool) {
	name := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		name = path[i+1:]
	}
	var lo, hi int64
	switch {
	case strings.HasPrefix(name, "base_"):
		if _, err := fmt.Sscanf(name, "base_%d", &lo); err != nil {
			return storeDir{}, false
		}
		return storeDir{kind: kindBase, min: 0, max: lo, path: path}, true
	case strings.HasPrefix(name, "delete_delta_"):
		if _, err := fmt.Sscanf(name, "delete_delta_%d_%d", &lo, &hi); err != nil {
			return storeDir{}, false
		}
		return storeDir{kind: kindDeleteDelta, min: lo, max: hi, path: path}, true
	case strings.HasPrefix(name, "delta_"):
		if _, err := fmt.Sscanf(name, "delta_%d_%d", &lo, &hi); err != nil {
			return storeDir{}, false
		}
		return storeDir{kind: kindDelta, min: lo, max: hi, path: path}, true
	}
	return storeDir{}, false
}

// InsertWriter writes inserted rows for one (writeID, fileID) into a
// delta_W_W directory, assigning RowIds sequentially.
type InsertWriter struct {
	w       *orc.Writer
	writeID int64
	fileID  int64
	nextRow int64
}

// NewInsertWriter opens a writer under loc for the given transaction write.
// fileID distinguishes parallel writers of the same transaction.
func NewInsertWriter(fs *dfs.FS, loc string, writeID int64, fileID int64, dataCols []orc.Column, opts orc.WriterOptions) *InsertWriter {
	path := fmt.Sprintf("%s/%s/file_%05d", loc, deltaDirName(writeID, writeID), fileID)
	return &InsertWriter{
		w:       orc.NewWriter(fs, path, FullSchema(dataCols), opts),
		writeID: writeID,
		fileID:  fileID,
	}
}

// WriteRow appends one data row (without system columns).
func (iw *InsertWriter) WriteRow(row []types.Datum) error {
	full := make([]types.Datum, 0, NumMetaCols+len(row))
	full = append(full,
		types.NewBigint(iw.writeID),
		types.NewBigint(iw.fileID),
		types.NewBigint(iw.nextRow),
	)
	full = append(full, row...)
	iw.nextRow++
	return iw.w.WriteRow(full)
}

// Rows returns the number of rows written so far.
func (iw *InsertWriter) Rows() int64 { return iw.nextRow }

// Close finalizes the delta file.
func (iw *InsertWriter) Close() error { return iw.w.Close() }

// DeleteMetaDeleter is the position of the deleting write's id in delete
// delta files. The first three columns identify the record being deleted
// (paper §3.2); the fourth stamps the write that performed the delete, so
// compacted (multi-write) delete deltas stay filterable per row against a
// snapshot even after the original single-write directories are cleaned.
const DeleteMetaDeleter = 3

// DeleteSchema returns the schema of delete delta files: the deleted
// record's identifier plus the deleting write id.
func DeleteSchema() []orc.Column {
	return append(MetaColumns(), orc.Column{Name: "__deleter", Type: types.TBigint})
}

// DeleteWriter records deleted row identifiers in a delete_delta_W_W
// directory. Deleted records store the identifier of the record being
// deleted (paper §3.2) plus the deleting write id.
type DeleteWriter struct {
	w       *orc.Writer
	writeID int64
}

// NewDeleteWriter opens a delete-delta writer for the given write.
func NewDeleteWriter(fs *dfs.FS, loc string, writeID int64, fileID int64) *DeleteWriter {
	path := fmt.Sprintf("%s/%s/file_%05d", loc, deleteDirName(writeID, writeID), fileID)
	return &DeleteWriter{w: orc.NewWriter(fs, path, DeleteSchema(), orc.WriterOptions{}), writeID: writeID}
}

// Delete records one row key as deleted.
func (dw *DeleteWriter) Delete(k RowKey) error {
	return dw.w.WriteRow([]types.Datum{
		types.NewBigint(k.WriteID),
		types.NewBigint(k.FileID),
		types.NewBigint(k.RowID),
		types.NewBigint(dw.writeID),
	})
}

// Close finalizes the delete delta file.
func (dw *DeleteWriter) Close() error { return dw.w.Close() }

// ReaderCache provides shared parsed ORC footers across snapshots; it is
// implemented by llap.MetadataCache. Returned readers are shared, so the
// snapshot rebinds them to its own cache wiring with WithSources instead
// of mutating them.
type ReaderCache interface {
	Reader(fs *dfs.FS, path string) (*orc.Reader, error)
}

// ScanCounters aggregates scan-efficiency counters across all workers of a
// query. All fields are atomics; a single ScanCounters is shared by every
// snapshot and scan worker of one query.
type ScanCounters struct {
	StripesSkipped       atomic.Int64 // data stripes pruned by search arguments
	DeleteStripesSkipped atomic.Int64 // delete-delta stripes pruned by deleter-id sarg
	Prefetched           atomic.Int64 // stripes accepted by the I/O elevator
}

// SnapshotOpts wires a snapshot into the LLAP caching and elevator stack.
// The zero value gives plain uncached filesystem reads.
type SnapshotOpts struct {
	Chunks   orc.ChunkReader // raw-byte cache (LLAP data cache)
	Vectors  orc.VectorCache // decoded-vector cache (elevator tier)
	Readers  ReaderCache     // shared parsed-footer cache
	Prefetch orc.Prefetcher  // async decode pool; nil scans synchronously
	Counters *ScanCounters   // optional per-query counters
}

// Snapshot is a consistent merge-on-read view of one table/partition
// directory under a ValidWriteIds list.
type Snapshot struct {
	fs       *dfs.FS
	loc      string
	dataCols []orc.Column
	valid    txn.ValidWriteIds
	baseMax  int64 // write id covered by the chosen base (0 = none)
	dataDirs []storeDir
	deletes  map[RowKey]struct{}
	opts     SnapshotOpts

	// deleteSkips counts delete-delta stripes pruned by the deleter-id
	// search argument while loading the delete set (single-threaded, in
	// OpenSnapshot).
	deleteSkips int64

	// readers caches opened file readers (footers) keyed by path, so the
	// stripe enumeration of Splits and the per-range scans of many workers
	// pay the footer read once per file. Guarded by mu; orc.Reader itself
	// is safe for concurrent stripe reads.
	mu      sync.Mutex
	readers map[string]*orc.Reader
}

// OpenSnapshot lists the directory, selects the newest usable base,
// determines the applicable deltas, and loads the valid delete set into
// memory (delete deltas are usually small and kept in memory, paper §3.2).
func OpenSnapshot(fs *dfs.FS, loc string, dataCols []orc.Column, valid txn.ValidWriteIds) (*Snapshot, error) {
	return OpenSnapshotWith(fs, loc, dataCols, valid, SnapshotOpts{})
}

// OpenSnapshotWith is OpenSnapshot with LLAP cache/elevator wiring present
// from construction, so even the delete-set load benefits from (and is
// counted against) the caches.
func OpenSnapshotWith(fs *dfs.FS, loc string, dataCols []orc.Column, valid txn.ValidWriteIds, opts SnapshotOpts) (*Snapshot, error) {
	s := &Snapshot{fs: fs, loc: loc, dataCols: dataCols, valid: valid, deletes: map[RowKey]struct{}{}, opts: opts}
	if !fs.Exists(loc) {
		return s, nil // empty table
	}
	infos, err := fs.List(loc)
	if err != nil {
		return nil, err
	}
	var dirs []storeDir
	for _, fi := range infos {
		if !fi.IsDir {
			continue
		}
		if d, ok := parseStoreDir(fi.Path); ok {
			dirs = append(dirs, d)
		}
	}
	// Choose the newest base whose coverage is fully visible: every write
	// id <= base max must be valid (compaction only folds committed data,
	// but an older snapshot must not use a newer base).
	for _, d := range dirs {
		if d.kind != kindBase {
			continue
		}
		if d.max <= valid.HighWater && d.max > s.baseMax && !anyInvalidUpTo(valid, d.max) {
			s.baseMax = d.max
		}
	}
	// Data dirs: the chosen base plus deltas that may contain rows above
	// it. A delta covered by a wider (compacted) delta is dropped so rows
	// are never read twice while the cleaner has not yet run.
	var candidates []storeDir
	for _, d := range dirs {
		switch d.kind {
		case kindBase:
			if d.max == s.baseMax {
				s.dataDirs = append(s.dataDirs, d)
			}
		case kindDelta:
			if d.max > s.baseMax && d.min <= valid.HighWater {
				candidates = append(candidates, d)
			}
		}
	}
	s.dataDirs = append(s.dataDirs, dropCovered(candidates)...)
	sort.Slice(s.dataDirs, func(i, j int) bool {
		if s.dataDirs[i].min != s.dataDirs[j].min {
			return s.dataDirs[i].min < s.dataDirs[j].min
		}
		return s.dataDirs[i].path < s.dataDirs[j].path
	})
	// Load the delete set from applicable delete deltas (dropping ones
	// covered by a wider compacted delete delta).
	var delCandidates []storeDir
	for _, d := range dirs {
		if d.kind != kindDeleteDelta || d.max <= s.baseMax || d.min > valid.HighWater {
			continue
		}
		// A single-write delete delta from an aborted transaction is dead
		// forever: its deletes were never committed and compaction drops
		// them. Pruning it here (not just at load time) also keeps it from
		// participating in coverage decisions.
		if d.min == d.max && valid.AbortedWrite(d.min) {
			continue
		}
		delCandidates = append(delCandidates, d)
	}
	for _, d := range dropCovered(delCandidates) {
		if err := s.loadDeletes(d); err != nil {
			return nil, err
		}
	}
	if opts.Counters != nil && s.deleteSkips > 0 {
		opts.Counters.DeleteStripesSkipped.Add(s.deleteSkips)
	}
	return s, nil
}

// DeleteStripesSkipped reports how many delete-delta stripes the deleter-id
// search argument pruned while loading this snapshot's delete set.
func (s *Snapshot) DeleteStripesSkipped() int64 { return s.deleteSkips }

// dropCovered removes directories whose WriteId range is strictly contained
// in a wider directory of the same kind (the wider one is the compacted
// replacement). The result is a fresh slice: filtering in place (dirs[:0])
// would overwrite entries of dirs while the inner coverage loop still reads
// them, corrupting the caller's slice.
func dropCovered(dirs []storeDir) []storeDir {
	out := make([]storeDir, 0, len(dirs))
	for _, d := range dirs {
		covered := false
		for _, o := range dirs {
			if o.path == d.path {
				continue
			}
			if o.min <= d.min && o.max >= d.max && (o.max-o.min) > (d.max-d.min) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, d)
		}
	}
	return out
}

// anyInvalidUpTo reports whether a still-relevant invalid write sits at or
// below hi — the test deciding if a compacted base covering writes up to hi
// may be read. Aborted writes do not count: compaction only folds committed
// data, so an aborted id below the base watermark is a permanent gap the
// base correctly excludes, and rejecting the base for it would pin every
// snapshot to the pre-compaction stores forever. Still-open writes (and
// writes committed after this snapshot) do count: a base built once they
// commit would contain rows this snapshot must not see.
func anyInvalidUpTo(valid txn.ValidWriteIds, hi int64) bool {
	for w := range valid.Invalid {
		if w <= hi && !valid.AbortedWrite(w) {
			return true
		}
	}
	return false
}

func (s *Snapshot) loadDeletes(d storeDir) error {
	// Dir-level validity first, before any file listing or stripe I/O: a
	// single-write delete delta from an open or aborted transaction
	// contributes nothing, so reading its stripes is wasted work.
	if d.min == d.max && !s.valid.Valid(d.min) {
		return nil
	}
	files, err := s.fs.ListRecursive(d.path)
	if err != nil {
		return err
	}
	for _, fi := range files {
		r, err := s.openReader(fi.Path)
		if err != nil {
			return err
		}
		// A delete record stores the identifier of the record being
		// deleted plus the write that deleted it. Single-write dirs are
		// validated above as a whole. Multi-write dirs are compacted
		// delete deltas that may fold writes this snapshot cannot see (an
		// older snapshot reading a newer compacted delta), so each row's
		// deleter WriteID must be valid here — deletes performed by
		// aborted or otherwise invisible writes must not be applied.
		hasDeleter := len(r.Schema()) > DeleteMetaDeleter
		multi := d.min != d.max && hasDeleter
		// Project only what the merge needs: the victim identifier, plus
		// the deleter id when it participates in per-row validity.
		proj := []int{MetaWriteID, MetaFileID, MetaRowID}
		if multi {
			proj = append(proj, DeleteMetaDeleter)
		}
		// Sarg the deleter write-id stripe statistics against the
		// snapshot: a stripe whose minimum deleter id is above the high
		// watermark holds only deletes from writes this snapshot cannot
		// see, so it is skipped without any data I/O. Deleters at or
		// below the high watermark may still be individually invalid
		// (open/aborted), which the per-row check below handles.
		var delSarg *orc.SearchArgument
		if hasDeleter {
			delSarg = &orc.SearchArgument{Preds: []orc.Predicate{{
				Col:    DeleteMetaDeleter,
				Op:     orc.PredLE,
				Values: []types.Datum{types.NewBigint(s.valid.HighWater)},
			}}}
		}
		for st := 0; st < r.NumStripes(); st++ {
			if delSarg != nil && !r.StripeCanMatch(st, delSarg) {
				s.deleteSkips++
				continue
			}
			b, err := r.ReadStripe(st, proj)
			if err != nil {
				return err
			}
			for i := 0; i < b.N; i++ {
				// Valid covers aborted deleters too: Aborted is a subset
				// of Invalid by construction.
				if multi && !s.valid.Valid(b.Cols[3].I64[i]) {
					continue
				}
				// A delete aimed at an aborted write's row is dead weight:
				// the victim is permanently invisible, so the entry would
				// never match in the scan's anti-join.
				w := b.Cols[0].I64[i]
				if s.valid.AbortedWrite(w) {
					continue
				}
				s.deletes[RowKey{
					WriteID: w,
					FileID:  b.Cols[1].I64[i],
					RowID:   b.Cols[2].I64[i],
				}] = struct{}{}
			}
		}
	}
	return nil
}

// openReader returns a (possibly cached) reader for one data file, bound
// to the snapshot's cache wiring. With a shared ReaderCache the footer is
// parsed once per daemon; the shared reader is never mutated — the
// snapshot keeps its own WithSources copy.
func (s *Snapshot) openReader(path string) (*orc.Reader, error) {
	s.mu.Lock()
	r, ok := s.readers[path]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	var err error
	if s.opts.Readers != nil {
		r, err = s.opts.Readers.Reader(s.fs, path)
	} else {
		r, err = orc.NewReader(s.fs, path)
	}
	if err != nil {
		return nil, err
	}
	if s.opts.Readers != nil || s.opts.Chunks != nil || s.opts.Vectors != nil {
		r = r.WithSources(s.opts.Chunks, s.opts.Vectors)
	}
	s.mu.Lock()
	if s.readers == nil {
		s.readers = make(map[string]*orc.Reader)
	}
	if prev, ok := s.readers[path]; ok {
		r = prev // another worker won the race; share its reader
	} else {
		s.readers[path] = r
	}
	s.mu.Unlock()
	return r, nil
}

// DeleteCount returns the number of visible deleted row keys.
func (s *Snapshot) DeleteCount() int { return len(s.deletes) }

// Scan streams the visible rows as batches. projection selects columns of
// the full schema (system columns at ordinals 0..2, data columns after);
// nil selects everything. The search argument, if any, is expressed against
// full-schema ordinals and used both for stripe skipping and, for PredBloom
// reducers, row filtering is left to the caller.
func (s *Snapshot) Scan(projection []int, sarg *orc.SearchArgument, fn func(*vector.Batch) error) error {
	projection, readCols := s.readColsFor(projection)
	for _, d := range s.dataDirs {
		files, err := s.fs.ListRecursive(d.path)
		if err != nil {
			return err
		}
		for _, fi := range files {
			if err := s.scanFile(fi.Path, d, 0, -1, readCols, sarg, len(projection), fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// readColsFor normalizes a projection over the full ACID schema (nil =
// everything) and prepends the system columns, which are always read for
// validity and delete anti-join checks.
func (s *Snapshot) readColsFor(projection []int) (proj, readCols []int) {
	if projection == nil {
		projection = make([]int, NumMetaCols+len(s.dataCols))
		for i := range projection {
			projection[i] = i
		}
	}
	readCols = make([]int, 0, NumMetaCols+len(projection))
	readCols = append(readCols, MetaWriteID, MetaFileID, MetaRowID)
	readCols = append(readCols, projection...)
	return projection, readCols
}

// prefetchAhead is how many sarg-surviving stripes a scan worker keeps
// queued on the I/O elevator ahead of the one it is consuming.
const prefetchAhead = 2

// scanFile streams the visible rows of stripes [lo, hi) of one data file
// (hi < 0 means every stripe), applying search-argument stripe skipping and
// snapshot filtering. Safe for concurrent use by parallel scan workers: it
// only reads immutable snapshot state.
//
// When the snapshot has a Prefetcher, the worker hints its remaining
// sarg-surviving stripes to the elevator a window ahead of consumption.
// Skipping happens before enqueue, so skipped stripes cost zero I/O.
func (s *Snapshot) scanFile(path string, d storeDir, lo, hi int, readCols []int, sarg *orc.SearchArgument, projN int, fn func(*vector.Batch) error) error {
	r, err := s.openReader(path)
	if err != nil {
		return err
	}
	if hi < 0 || hi > r.NumStripes() {
		hi = r.NumStripes()
	}
	// Sarg pruning first: the survivors drive both the synchronous read
	// loop and the prefetch window.
	surv := make([]int, 0, hi-lo)
	for st := lo; st < hi; st++ {
		if sarg != nil && !r.StripeCanMatch(st, sarg) {
			if s.opts.Counters != nil {
				s.opts.Counters.StripesSkipped.Add(1)
			}
			continue
		}
		surv = append(surv, st)
	}
	nextPf := 0 // next survivor index to offer to the elevator
	for i, st := range surv {
		if s.opts.Prefetch != nil {
			for nextPf <= i+prefetchAhead && nextPf < len(surv) {
				if nextPf > i && s.opts.Prefetch.Prefetch(r, surv[nextPf], readCols, nil) {
					if s.opts.Counters != nil {
						s.opts.Counters.Prefetched.Add(1)
					}
				}
				nextPf++
			}
		}
		b, err := r.ReadStripe(st, readCols)
		if err != nil {
			return err
		}
		out := s.filterBatch(b, d, projN)
		if out.N == 0 {
			continue
		}
		if err := fn(out); err != nil {
			return err
		}
	}
	return nil
}

// filterBatch applies snapshot validity and the delete anti-join, returning
// a batch with only the caller's projected columns.
func (s *Snapshot) filterBatch(b *vector.Batch, d storeDir, projN int) *vector.Batch {
	wids := b.Cols[0].I64
	fids := b.Cols[1].I64
	rids := b.Cols[2].I64
	sel := make([]int, 0, b.N)
	for i := 0; i < b.N; i++ {
		w := wids[i]
		// Rows at or below the base high watermark inside deltas were
		// superseded by the base selection; in the base itself w <= baseMax
		// by construction. Validity: skip rows above the snapshot high
		// watermark or belonging to open/aborted transactions.
		if d.kind != kindBase && w <= s.baseMax {
			continue
		}
		if !s.valid.Valid(w) {
			continue
		}
		if len(s.deletes) > 0 {
			if _, dead := s.deletes[RowKey{WriteID: w, FileID: fids[i], RowID: rids[i]}]; dead {
				continue
			}
		}
		sel = append(sel, i)
	}
	return &vector.Batch{Cols: b.Cols[NumMetaCols : NumMetaCols+projN], Sel: sel, N: len(sel)}
}

// ListStores summarizes the store directories currently present (for
// compaction decisions and tests).
func ListStores(fs *dfs.FS, loc string) (bases, deltas, deleteDeltas []string, err error) {
	if !fs.Exists(loc) {
		return nil, nil, nil, nil
	}
	infos, err := fs.List(loc)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, fi := range infos {
		if !fi.IsDir {
			continue
		}
		d, ok := parseStoreDir(fi.Path)
		if !ok {
			continue
		}
		switch d.kind {
		case kindBase:
			bases = append(bases, fi.Path)
		case kindDelta:
			deltas = append(deltas, fi.Path)
		case kindDeleteDelta:
			deleteDeltas = append(deleteDeltas, fi.Path)
		}
	}
	return bases, deltas, deleteDeltas, nil
}
