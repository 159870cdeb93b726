// Package federation implements Hive's storage handler architecture (paper
// §6.1): an input format that reads an external system (optionally
// executing a pushed-down query), an output format that writes to it, a
// SerDe converting between Hive's representation and the external one, and
// a Metastore hook for DDL notifications. The Druid handler is the
// flagship implementation; the pushdown rule generates Druid JSON from the
// relational plan (paper §6.2, Figure 6).
package federation

import (
	"encoding/json"
	"fmt"

	"repro/internal/druid"
	"repro/internal/exec"
	"repro/internal/metastore"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// StorageHandler federates one external system.
type StorageHandler interface {
	// Name is the handler class name used in STORED BY.
	Name() string
	// Hook returns the metastore notification hook.
	Hook() metastore.Hook
	// CreateReader builds an operator that reads the external table,
	// executing the pushed query when non-empty.
	CreateReader(t *metastore.Table, fields []plan.Field, pushedQuery string) (exec.Operator, error)
	// Writer returns a row sink for INSERT into the external table.
	Writer(t *metastore.Table) (RowWriter, error)
	// Pushdown attempts to fold a plan subtree over a scan of this
	// handler's table into a single external query, returning a
	// ForeignScan replacement (nil when not applicable).
	Pushdown(rel plan.Rel) *plan.ForeignScan
}

// RowWriter receives rows for external inserts.
type RowWriter interface {
	WriteRow(row []types.Datum) error
	Close() error
}

// Registry maps handler names to implementations.
type Registry struct {
	handlers map[string]StorageHandler
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{handlers: map[string]StorageHandler{}}
}

// Register installs a handler and its metastore hook.
func (r *Registry) Register(ms *metastore.Metastore, h StorageHandler) {
	r.handlers[h.Name()] = h
	ms.RegisterHook(h.Name(), h.Hook())
}

// Handler resolves a handler by name.
func (r *Registry) Handler(name string) (StorageHandler, bool) {
	h, ok := r.handlers[name]
	return h, ok
}

// PushComputation rewrites the plan, folding maximal subtrees over external
// tables into ForeignScans with generated queries — Hive's Calcite adapter
// role (paper §6.2).
func (r *Registry) PushComputation(rel plan.Rel) plan.Rel {
	// Try the largest subtree first; recurse into children on failure.
	if fs := r.tryPush(rel); fs != nil {
		return fs
	}
	switch x := rel.(type) {
	case *plan.Filter:
		return &plan.Filter{Input: r.PushComputation(x.Input), Cond: x.Cond}
	case *plan.Project:
		return &plan.Project{Input: r.PushComputation(x.Input), Exprs: x.Exprs, Names: x.Names}
	case *plan.Join:
		return &plan.Join{Kind: x.Kind, Left: r.PushComputation(x.Left), Right: r.PushComputation(x.Right), Cond: x.Cond, ReducerID: x.ReducerID}
	case *plan.Aggregate:
		return &plan.Aggregate{Input: r.PushComputation(x.Input), GroupBy: x.GroupBy, Aggs: x.Aggs, GroupingSets: x.GroupingSets, Names: x.Names}
	case *plan.Window:
		return &plan.Window{Input: r.PushComputation(x.Input), Fns: x.Fns, Names: x.Names}
	case *plan.Sort:
		return &plan.Sort{Input: r.PushComputation(x.Input), Keys: x.Keys}
	case *plan.Limit:
		return &plan.Limit{Input: r.PushComputation(x.Input), N: x.N, Offset: x.Offset}
	case *plan.SetOp:
		return &plan.SetOp{Kind: x.Kind, All: x.All, Left: r.PushComputation(x.Left), Right: r.PushComputation(x.Right)}
	case *plan.Spool:
		return &plan.Spool{ID: x.ID, Input: r.PushComputation(x.Input)}
	default:
		return rel
	}
}

func (r *Registry) tryPush(rel plan.Rel) *plan.ForeignScan {
	scan := findHandlerScan(rel)
	if scan == nil {
		return nil
	}
	h, ok := r.handlers[scan.Table.StorageHandler]
	if !ok {
		return nil
	}
	return h.Pushdown(rel)
}

// findHandlerScan returns the single handler-backed scan under rel through
// pushable nodes, or nil.
func findHandlerScan(rel plan.Rel) *plan.Scan {
	switch x := rel.(type) {
	case *plan.Scan:
		if x.Table.StorageHandler != "" {
			return x
		}
		return nil
	case *plan.Filter:
		return findHandlerScan(x.Input)
	case *plan.Project:
		return findHandlerScan(x.Input)
	case *plan.Aggregate:
		return findHandlerScan(x.Input)
	case *plan.Sort:
		return findHandlerScan(x.Input)
	case *plan.Limit:
		return findHandlerScan(x.Input)
	}
	return nil
}

// ForeignScanOp executes a pushed query through a handler.
//
//lint:ignore operator-node a plan leaf: inner is the handler's reader, created at Open, not a planned input
type ForeignScanOp struct {
	Handler StorageHandler
	Table   *metastore.Table
	Fields  []plan.Field
	Query   string

	inner exec.Operator
}

// Types implements exec.Operator.
func (f *ForeignScanOp) Types() []types.T {
	ts := make([]types.T, len(f.Fields))
	for i, fd := range f.Fields {
		ts[i] = fd.T
	}
	return ts
}

// Open implements exec.Operator.
func (f *ForeignScanOp) Open() error {
	op, err := f.Handler.CreateReader(f.Table, f.Fields, f.Query)
	if err != nil {
		return err
	}
	f.inner = op
	return f.inner.Open()
}

// Next implements exec.Operator.
func (f *ForeignScanOp) Next() (*vector.Batch, error) { return f.inner.Next() }

// Close implements exec.Operator.
func (f *ForeignScanOp) Close() error {
	if f.inner == nil {
		return nil
	}
	return f.inner.Close()
}

// rowsToOperator adapts materialized datum rows into an operator.
type rowsOp struct {
	rows    [][]types.Datum
	ts      []types.T
	emitted int
}

func (r *rowsOp) Types() []types.T { return r.ts }
func (r *rowsOp) Open() error      { r.emitted = 0; return nil }
func (r *rowsOp) Close() error     { return nil }

func (r *rowsOp) Next() (*vector.Batch, error) {
	if r.emitted >= len(r.rows) {
		return nil, nil
	}
	n := len(r.rows) - r.emitted
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	b := vector.NewBatch(r.ts, n)
	for i := 0; i < n; i++ {
		for c, d := range r.rows[r.emitted+i] {
			b.Cols[c].Set(i, d)
		}
	}
	b.N = n
	r.emitted += n
	return b, nil
}

// decodeResultRows converts Druid JSON rows into typed datum rows in field
// order — the deserializer half of the SerDe (paper §6.1).
func decodeResultRows(rows []druid.ResultRow, fields []plan.Field, names []string) ([][]types.Datum, error) {
	out := make([][]types.Datum, len(rows))
	for i, rr := range rows {
		row := make([]types.Datum, len(fields))
		for c, f := range fields {
			v, ok := rr[names[c]]
			if !ok || v == nil {
				row[c] = types.NullOf(f.T.Kind)
				continue
			}
			d, err := anyToDatum(v, f.T)
			if err != nil {
				return nil, fmt.Errorf("federation: column %s: %v", names[c], err)
			}
			row[c] = d
		}
		out[i] = row
	}
	return out, nil
}

func anyToDatum(v any, t types.T) (types.Datum, error) {
	switch x := v.(type) {
	case string:
		return types.Cast(types.NewString(x), t)
	case float64:
		return types.Cast(types.NewDouble(x), t)
	case int64:
		return types.Cast(types.NewBigint(x), t)
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return types.Cast(types.NewBigint(i), t)
		}
		f, err := x.Float64()
		if err != nil {
			return types.Datum{}, err
		}
		return types.Cast(types.NewDouble(f), t)
	case bool:
		return types.Cast(types.NewBool(x), t)
	}
	return types.Datum{}, fmt.Errorf("unsupported JSON value %T", v)
}

func formatDatum(d types.Datum) string {
	if d.Null {
		return ""
	}
	return d.String()
}
