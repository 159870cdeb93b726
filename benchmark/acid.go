package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	hive "repro"
	"repro/internal/acid"
	"repro/internal/metastore"
	"repro/internal/orc"
)

// acidShape sizes acid_mixed. The table holds about Preload live rows
// throughout: every round inserts Insert+Merge/2 new keys and deletes as
// many of the oldest, so a read costs the same in the last round as in the
// first and the number of rounds a run completes does not change what a
// round costs (a growing table would tie read latency to write speed).
type acidShape struct {
	Preload    int // rows loaded by set-up
	Batch      int // rows per set-up INSERT
	Insert     int // rows per round's INSERT
	Update     int // width of the round's UPDATE key range
	Merge      int // rows the round's MERGE upserts: half matched, half new
	MinorEvery int // rounds between minor compactions
	MajorEvery int // rounds per cycle; a cycle ends with major + Clean
}

func acidShapeFor(sc Scale) acidShape {
	if sc.Name == scaleSmoke.Name {
		return acidShape{Preload: 600, Batch: 200, Insert: 20, Update: 4, Merge: 8, MinorEvery: 3, MajorEvery: 6}
	}
	return acidShape{Preload: 10000, Batch: 1000, Insert: 100, Update: 10, Merge: 20, MinorEvery: 10, MajorEvery: 50}
}

const acidDDL = `CREATE TABLE events (k BIGINT, grp INT, v BIGINT, amt DECIMAL(9,2), note STRING)`

// acidRow is the model's copy of one live row of events.
type acidRow struct {
	grp  int
	v    int64
	amt  int64 // cents
	note string
}

func (r acidRow) values(k int64) string {
	return fmt.Sprintf("(%d, %d, %d, %s, '%s')", k, r.grp, r.v, money(r.amt), r.note)
}

// acidModel is what events must contain: the generator applies every DML
// statement to it before sending the statement, so COUNT(*), both sums and
// any single row are known exactly after every statement.
type acidModel struct {
	live   map[int64]acidRow
	oldest int64 // every key in [oldest, next) is live, none outside
	next   int64
	sumV   int64
	sumAmt int64
	staged int // rows in the changes table
}

func (m *acidModel) put(k int64, r acidRow) {
	if old, ok := m.live[k]; ok {
		m.sumV -= old.v
		m.sumAmt -= old.amt
	}
	m.live[k] = r
	m.sumV += r.v
	m.sumAmt += r.amt
}

func (m *acidModel) drop(k int64) {
	old := m.live[k]
	m.sumV -= old.v
	m.sumAmt -= old.amt
	delete(m.live, k)
}

func newAcidRow(rng *rand.Rand, k int64) acidRow {
	return acidRow{grp: rng.Intn(16), v: rng.Int63n(1000), amt: rng.Int63n(100000), note: fmt.Sprintf("n%d", k%97)}
}

// GenerateAcid builds acid_mixed's load: the events and staging tables and
// Preload rows. Dataset.acid carries the model the rounds continue from.
func GenerateAcid(sc Scale, seed int64) *Dataset {
	sh := acidShapeFor(sc)
	rng := rand.New(rand.NewSource(seed))
	m := &acidModel{live: map[int64]acidRow{}, oldest: 1, next: 1}
	d := &Dataset{
		Scale: Scale{Name: sc.Name, Batch: sh.Batch},
		Seed:  seed,
		DDL: []string{acidDDL,
			`CREATE TABLE changes (k BIGINT, grp INT, v BIGINT, amt DECIMAL(9,2), note STRING)`},
		Analyze: []string{"ANALYZE TABLE events COMPUTE STATISTICS"},
		acid:    m,
	}
	d.batches("INSERT INTO events VALUES ", sh.Preload, func(b *strings.Builder, _ int) {
		r := newAcidRow(rng, m.next)
		m.put(m.next, r)
		b.WriteString(r.values(m.next))
		m.next++
	})
	return d
}

// acidDriver runs rounds of DML and reads against events with one client,
// and compacts the table on a fixed cadence of rounds.
type acidDriver struct {
	r     *run
	c     *client
	sh    acidShape
	m     *acidModel
	rng   *rand.Rand
	table *metastore.Table
	round int
}

func openAcid(r *run) (driver, error) {
	t, err := r.wh.Server().MS.GetTable("default", "events")
	if err != nil {
		return nil, err
	}
	c := r.newClient()
	c.s.SetConf("hive.parallelism", "2")
	return &acidDriver{r: r, c: c, sh: acidShapeFor(r.scale), m: r.ds.acid, rng: rand.New(rand.NewSource(r.opt.seed + 1)), table: t}, nil
}

// wantAgg checks (COUNT(*), SUM(v), SUM(amt)) against the model.
func (d *acidDriver) wantAgg() func(*hive.Result) error {
	count, sumV, sumAmt := int64(len(d.m.live)), d.m.sumV, d.m.sumAmt
	return func(res *hive.Result) error {
		if len(res.Rows) != 1 {
			return fmt.Errorf("got %d rows, want 1", len(res.Rows))
		}
		row := res.Rows[0]
		amt, err := cents(row[2])
		if err != nil {
			return err
		}
		if row[0].I != count || row[1].I != sumV || amt != sumAmt {
			return fmt.Errorf("got count=%d sum(v)=%d sum(amt)=%s, want count=%d sum(v)=%d sum(amt)=%s",
				row[0].I, row[1].I, money(amt), count, sumV, money(sumAmt))
		}
		return nil
	}
}

// read runs a read and checks that the result cache served it or not, as
// expected: only the second of two identical reads with no write between
// them may hit.
func (d *acidDriver) read(st Statement, wantHit bool) {
	st.Volatile = true
	if d.c.tr != nil && !wantHit {
		d.sampleStores()
	}
	if d.c.exec(&st) == nil {
		return
	}
	if hit := d.c.s.Internal().LastCacheHit; hit != wantHit {
		d.c.rec.fail(fmt.Errorf("%s: result-cache hit=%v, want %v", st.Name, hit, wantHit))
	}
}

// sampleStores records, for the traced run, what a read is about to face:
// how many delta directories the table has and how many rows its delete set
// holds, and times the snapshot open that finds out.
func (d *acidDriver) sampleStores() {
	srv := d.r.wh.Server()
	_, deltas, dels, err := acid.ListStores(srv.FS, d.table.Location)
	if err != nil {
		return
	}
	tm := srv.MS.Txns()
	valid := tm.GetValidWriteIds(d.table.FullName(), tm.GetSnapshot())
	var snap *acid.Snapshot
	d.c.tr.span(0, "driver.acid.open_snapshot", func() {
		snap, err = acid.OpenSnapshotWith(srv.FS, d.table.Location, orcColumns(d.table), valid, acid.SnapshotOpts{Readers: srv.MetaCache})
	})
	if err != nil {
		return
	}
	d.c.tr.sample("acid.read", map[string]int64{"delta_dirs": int64(len(deltas) + len(dels)), "delete_set_rows": int64(snap.DeleteCount())})
}

// oneRound is INSERT, UPDATE, DELETE, the staging write, MERGE, the same
// aggregate twice and one key lookup.
func (d *acidDriver) oneRound() {
	m, sh := d.m, d.sh
	var b strings.Builder

	b.WriteString("INSERT INTO events VALUES ")
	for i := 0; i < sh.Insert; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		r := newAcidRow(d.rng, m.next)
		m.put(m.next, r)
		b.WriteString(r.values(m.next))
		m.next++
	}
	d.c.exec(&Statement{Name: "insert", SQL: b.String(), Write: true, Rows: sh.Insert})

	lo := m.oldest + d.rng.Int63n(m.next-m.oldest-int64(sh.Update))
	hi := lo + int64(sh.Update) - 1
	for k := lo; k <= hi; k++ {
		r := m.live[k]
		r.v += 3
		m.put(k, r)
	}
	d.c.exec(&Statement{Name: "update", SQL: fmt.Sprintf(`UPDATE events SET v = v + 3 WHERE k BETWEEN %d AND %d`, lo, hi), Write: true, Rows: sh.Update})

	drop := int64(sh.Insert + sh.Merge/2)
	for k := m.oldest; k < m.oldest+drop; k++ {
		m.drop(k)
	}
	d.c.exec(&Statement{Name: "delete", SQL: fmt.Sprintf(`DELETE FROM events WHERE k BETWEEN %d AND %d`, m.oldest, m.oldest+drop-1), Write: true, Rows: int(drop)})
	m.oldest += drop

	// MERGE reads its source from a table: half the staged keys exist and
	// are updated, half are new and inserted.
	b.Reset()
	b.WriteString("INSERT OVERWRITE TABLE changes VALUES ")
	seen := map[int64]bool{}
	for i := 0; i < sh.Merge; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		k := m.next
		if i%2 == 0 {
			for k = m.oldest + d.rng.Int63n(m.next-m.oldest); seen[k]; k = m.oldest + d.rng.Int63n(m.next-m.oldest) {
			}
		} else {
			m.next++
		}
		seen[k] = true
		r := newAcidRow(d.rng, k)
		if old, ok := m.live[k]; ok {
			// WHEN MATCHED sets v and amt only.
			r.grp, r.note = old.grp, old.note
		}
		b.WriteString(r.values(k))
		m.put(k, r)
	}
	m.staged = sh.Merge
	d.c.exec(&Statement{Name: "stage", SQL: b.String(), Write: true, Rows: sh.Merge})
	d.c.exec(&Statement{Name: "merge", SQL: `MERGE INTO events t USING changes c ON t.k = c.k
		WHEN MATCHED THEN UPDATE SET v = c.v, amt = c.amt
		WHEN NOT MATCHED THEN INSERT VALUES (c.k, c.grp, c.v, c.amt, c.note)`, Write: true, Rows: sh.Merge})

	const agg = `SELECT COUNT(*), SUM(v), SUM(amt) FROM events`
	d.read(Statement{Name: "agg_read", SQL: agg, Check: d.wantAgg()}, false)
	d.read(Statement{Name: "agg_read_again", SQL: agg, Check: d.wantAgg()}, true)

	k := m.oldest + d.rng.Int63n(m.next-m.oldest)
	want := m.live[k]
	d.read(Statement{Name: "key_lookup", SQL: fmt.Sprintf(`SELECT grp, v, amt, note FROM events WHERE k = %d`, k),
		Check: func(res *hive.Result) error {
			if len(res.Rows) != 1 {
				return fmt.Errorf("key %d: got %d rows, want 1", k, len(res.Rows))
			}
			row := res.Rows[0]
			amt, err := cents(row[2])
			if err != nil {
				return err
			}
			if got := (acidRow{grp: int(row[0].I), v: row[1].I, amt: amt, note: row[3].S}); got != want {
				return fmt.Errorf("key %d: got %+v, want %+v", k, got, want)
			}
			return nil
		}}, false)
}

// cycle is MajorEvery rounds with a minor compaction every MinorEvery and a
// major compaction plus Clean at the end; it returns the time inside them.
func (d *acidDriver) cycle() time.Duration {
	var spent time.Duration
	for i := 0; i < d.sh.MajorEvery; i++ {
		d.oneRound()
		d.round++
		major := d.round%d.sh.MajorEvery == 0
		if major || d.round%d.sh.MinorEvery == 0 {
			t, err := compact(d.r.wh, d.table, d.table.Location, major, d.c.tr)
			if err != nil {
				d.c.rec.fail(err)
			}
			spent += t
			d.r.wd.tick()
		}
	}
	return spent
}

func (d *acidDriver) warm() *samples {
	d.c.rec, d.c.tr = newSamples(), nil
	d.cycle()
	return d.c.rec
}

func (d *acidDriver) measure(lim limit, tr *Tracer) *samples {
	d.c.rec, d.c.tr = newSamples(), tr
	start := time.Now()
	for n := 0; lim.more(n, start); n++ {
		d.c.rec.compaction = append(d.c.rec.compaction, d.cycle().Seconds())
		// The cycle has just ended with a major compaction and Clean.
		if bytes, err := d.r.storedBytes(); err == nil {
			d.c.rec.storedPerRow = append(d.c.rec.storedPerRow, ratio(float64(bytes), float64(d.r.ds.LiveRows())))
		}
	}
	return d.c.rec
}

// golden is empty: every read of acid_mixed is checked against the model,
// which is stricter than a digest.
func (d *acidDriver) golden() map[string]string { return map[string]string{} }
func (d *acidDriver) shortUnits() int           { return 1 }
func (d *acidDriver) close()                    { d.c.s.Close() }

// compact runs a minor compaction of one table or partition directory, or a
// major one followed by Clean. There is no SQL for compaction, so it calls
// the compactor the way a background service would: with the write ids the
// transaction manager says are safe to compact.
func compact(wh *hive.Warehouse, t *metastore.Table, loc string, major bool, tr *Tracer) (time.Duration, error) {
	srv := wh.Server()
	cols := orcColumns(t)
	var before map[uint64]bool
	if tr != nil {
		before = map[uint64]bool{}
		files, err := srv.FS.ListRecursive(loc)
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			before[f.FileID] = true
		}
	}
	t0 := time.Now()
	valid := srv.MS.Txns().CompactorValidWriteIds(t.FullName())
	cp := acid.NewCompactor(srv.FS, loc, cols, orc.WriterOptions{})
	var err error
	if major {
		tr.span(0, "driver.acid.compact_major", func() { err = cp.Major(valid) })
		if err == nil {
			tr.span(0, "driver.acid.clean", func() { err = acid.Clean(srv.FS, loc) })
		}
	} else {
		tr.span(0, "driver.acid.compact_minor", func() { err = cp.Minor(valid) })
	}
	if err != nil {
		return 0, fmt.Errorf("compact %s: %w", loc, err)
	}
	spent := time.Since(t0)
	if tr != nil {
		// Every file that was not there before is one the compactor wrote.
		files, err := srv.FS.ListRecursive(loc)
		if err != nil {
			return 0, err
		}
		var written int64
		for _, f := range files {
			if !before[f.FileID] {
				written += f.Size
			}
		}
		tr.sample("acid.compact", map[string]int64{"bytes_rewritten": written})
	}
	return spent, nil
}

var acidMixed = &workloadDef{
	name:  "acid_mixed",
	why:   "one ACID table under INSERT, UPDATE, DELETE and MERGE with reads between and compaction on a cadence, result cache on: writes, delete deltas and invalidation beside reads",
	scale: analyticScale,
	config: func(Scale) hive.Config {
		return hive.Config{}
	},
	generate: GenerateAcid,
	table:    "events",
	open:     openAcid,
}
