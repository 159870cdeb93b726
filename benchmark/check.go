package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"

	hive "repro"
	"repro/internal/types"
)

// Statement is one SQL text a workload runs, with how its result is checked.
type Statement struct {
	// Name groups latency samples: a query's name, or a statement class
	// whose literals rotate.
	Name string
	SQL  string
	// Key identifies the result for digest comparison; empty means Name.
	// Classes with rotating literals use the SQL text.
	Key string
	// Check, when set, compares the result with what the generator knows
	// about the data (counts and sums it kept while emitting rows).
	Check func(*hive.Result) error
	// RowsOnly limits the digest to the row count: the statement orders by
	// a non-unique key under a LIMIT, so which of the tied rows it returns
	// is not defined.
	RowsOnly bool
	// Volatile marks a read whose result changes between executions (the
	// table is written in between); Check covers it and no digest is kept.
	Volatile bool
	// Write marks DML; its latency counts toward the write metrics.
	Write bool
	// Rows is the number of rows a DML statement inserts, updates or deletes.
	Rows int
}

// Digest identifies a result regardless of row order: the number of rows,
// the wrapping sum of per-row hashes over the exact fields, and the plain sum
// of the floating-point fields. Doubles are kept out of the hash because a
// parallel aggregate adds its partial sums in a different order from run to
// run: the last bits move, and any rounding has a boundary they can cross.
type Digest struct {
	Rows   int
	Sum    uint64
	Floats float64
}

func (d Digest) String() string { return fmt.Sprintf("%d:%016x:%.9g", d.Rows, d.Sum, d.Floats) }

func parseDigest(s string) (Digest, error) {
	var d Digest
	_, err := fmt.Sscanf(s, "%d:%x:%g", &d.Rows, &d.Sum, &d.Floats)
	return d, err
}

// same compares exactly, but the float sums to 6 significant digits.
func (d Digest) same(o Digest) bool {
	tol := 1e-6 * math.Max(math.Abs(d.Floats), math.Abs(o.Floats))
	return d.Rows == o.Rows && d.Sum == o.Sum && math.Abs(d.Floats-o.Floats) <= tol
}

func digestOf(res *hive.Result, rowsOnly bool) Digest {
	d := Digest{Rows: len(res.Rows)}
	if rowsOnly {
		return d
	}
	for _, row := range res.Rows {
		h := fnv.New64a()
		for _, f := range row {
			switch {
			case f.Null:
				h.Write([]byte("\x01NULL"))
			case f.K == types.Float64:
				d.Floats += f.F
			default:
				h.Write([]byte(f.String()))
			}
			h.Write([]byte{0})
		}
		d.Sum += h.Sum64()
	}
	return d
}

// cents reads a DECIMAL(…,2), integer or NULL datum as hundredths; SUM over
// no rows is NULL and reads as 0.
func cents(d types.Datum) (int64, error) {
	switch {
	case d.Null:
		return 0, nil
	case d.K == types.Decimal && d.DecimalScale() == 2:
		return d.I, nil
	case d.K == types.Decimal:
		return 0, fmt.Errorf("decimal scale %d, want 2", d.DecimalScale())
	case d.K == types.Int32 || d.K == types.Int64:
		return d.I * 100, nil
	}
	return 0, fmt.Errorf("not a decimal: %s", d.String())
}

// wantCountSum builds a Check for a one-row (COUNT(*), SUM(price)) result.
func wantCountSum(count, sumCents int64) func(*hive.Result) error {
	return func(res *hive.Result) error {
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
			return fmt.Errorf("got %d rows, want one (count, sum) row", len(res.Rows))
		}
		c, err := cents(res.Rows[0][1])
		if err != nil {
			return err
		}
		if res.Rows[0][0].I != count || c != sumCents {
			return fmt.Errorf("got count=%d sum=%s, want count=%d sum=%s", res.Rows[0][0].I, money(c), count, money(sumCents))
		}
		return nil
	}
}

//go:embed golden.json
var goldenJSON []byte

const goldenPath = "benchmark/golden.json"

// defaultSeed is the seed golden.json was recorded at.
const defaultSeed = 1

// Golden maps scale → workload → statement name → digest, for defaultSeed.
type Golden map[string]map[string]map[string]string

func loadGolden() (Golden, error) {
	g := Golden{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checker verifies statement results for one workload run: against the
// generator's model, against the digest the same statement gave before in
// this run, and against golden.json at the default seed.
type checker struct {
	golden   map[string]string // this scale and workload; nil at other seeds
	recorded map[string]Digest // digests seen, by statement key
}

func newChecker(g Golden, scale, workload string, seed int64) *checker {
	c := &checker{recorded: map[string]Digest{}}
	if seed == defaultSeed {
		c.golden = g[scale][workload]
	}
	return c
}

func (st *Statement) key() string {
	if st.Key != "" {
		return st.Key
	}
	return st.Name
}

// verify returns nil when res is what st must return.
func (c *checker) verify(st *Statement, res *hive.Result) error {
	if st.Check != nil {
		if err := st.Check(res); err != nil {
			return fmt.Errorf("%s: %w", st.Name, err)
		}
	}
	if st.Write || st.Volatile {
		return nil
	}
	got := digestOf(res, st.RowsOnly)
	key := st.key()
	if prev, ok := c.recorded[key]; ok {
		if !prev.same(got) {
			return fmt.Errorf("%s: digest %s differs from the earlier %s", st.Name, got, prev)
		}
		return nil
	}
	c.recorded[key] = got
	if text, ok := c.golden[key]; ok {
		want, err := parseDigest(text)
		if err != nil {
			return fmt.Errorf("golden digest of %s: %w", st.Name, err)
		}
		if !want.same(got) {
			return fmt.Errorf("%s: digest %s differs from golden %s", st.Name, got, want)
		}
	}
	return nil
}

// digests renders what the checker recorded, the form golden.json keeps.
func (c *checker) digests() map[string]string {
	out := make(map[string]string, len(c.recorded))
	for k, d := range c.recorded {
		out[k] = d.String()
	}
	return out
}

// updateGolden rewrites golden.json with this run's digests for one scale
// and workload, keeping the others.
func updateGolden(scale, workload string, recorded map[string]string) error {
	g := Golden{}
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", goldenPath, err)
		}
	}
	if g[scale] == nil {
		g[scale] = map[string]map[string]string{}
	}
	g[scale][workload] = recorded
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
