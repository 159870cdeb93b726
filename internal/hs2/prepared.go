package hs2

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/types"
)

// preparedStmt is one PREPARE'd statement in a session: the parameterized
// AST, its normalized digest, and how many parameters it takes. The
// compiled template itself lives in the server-wide plan cache so every
// session preparing the same shape shares one compilation; the session
// entry is just the handle EXECUTE resolves by name.
type preparedStmt struct {
	db      string // database the statement was prepared against
	digest  string // normalized digest of the parameterized form
	norm    *sql.SelectStmt
	nparams int
}

// executePrepare hoists the statement's literals, compiles the template
// eagerly (so EXECUTE is pure bind-and-run), and registers the name.
// Re-preparing an existing name replaces it.
func (s *Session) executePrepare(x *sql.PrepareStmt) (*Result, error) {
	if s.opts.planner.v12 {
		if err := checkV12Support(x.Select); err != nil {
			return nil, err
		}
	}
	norm, args, digest := sql.Parameterize(x.Select)
	p := &preparedStmt{db: s.db, digest: digest, norm: norm, nparams: len(args)}
	// Compile now: a PREPARE that cannot plan should fail at PREPARE, and
	// the warm template makes the first EXECUTE as cheap as the rest.
	if _, _, err := s.template(p.db, p.digest, p.norm); err != nil {
		return nil, err
	}
	if s.prepared == nil {
		s.prepared = map[string]*preparedStmt{}
	}
	s.prepared[x.Name] = p
	return &Result{}, nil
}

// executeExecute binds EXECUTE arguments to a prepared statement and sends
// it down the pipeline — no parsing, and no planning while its template is
// in the plan cache.
func (s *Session) executeExecute(x *sql.ExecuteStmt) (*Result, error) {
	p, ok := s.prepared[x.Name]
	if !ok {
		return nil, fmt.Errorf("hs2: no prepared statement %q", x.Name)
	}
	if len(x.Args) != p.nparams {
		return nil, fmt.Errorf("hs2: prepared statement %q wants %d parameters, got %d",
			x.Name, p.nparams, len(x.Args))
	}
	args := make([]types.Datum, len(x.Args))
	for i, a := range x.Args {
		d, err := executeArgValue(a)
		if err != nil {
			return nil, fmt.Errorf("hs2: EXECUTE %s argument %d: %w", x.Name, i+1, err)
		}
		args[i] = d
	}
	return s.run(&query{stmt: p, args: args})
}

// executeArgValue evaluates an EXECUTE argument: a literal constant,
// optionally under unary minus. Anything needing a row context is not a
// constant and is rejected.
func executeArgValue(e sql.Expr) (types.Datum, error) {
	switch x := e.(type) {
	case *sql.Lit:
		return x.Val, nil
	case *sql.UnaryExpr:
		if x.Op == "-" {
			d, err := executeArgValue(x.E)
			if err != nil {
				return types.Datum{}, err
			}
			switch d.K {
			case types.Int64:
				d.I = -d.I
				return d, nil
			case types.Float64:
				d.F = -d.F
				return d, nil
			case types.Decimal:
				d.I = -d.I
				return d, nil
			}
		}
	}
	return types.Datum{}, fmt.Errorf("expected a literal constant, got %s", sql.FormatExpr(e))
}

func (s *Session) executeDeallocate(x *sql.DeallocateStmt) (*Result, error) {
	if _, ok := s.prepared[x.Name]; !ok {
		return nil, fmt.Errorf("hs2: no prepared statement %q", x.Name)
	}
	delete(s.prepared, x.Name)
	return &Result{}, nil
}

// EstimateForDigest exposes the workload manager's memory estimate for a
// digest (observability: tests assert literal variants share history).
func (s *Session) EstimateForDigest(pool, digest string) int64 {
	mgr := s.srv.WorkloadManager()
	if mgr == nil {
		return 0
	}
	return mgr.EstimateFor(pool, digest)
}
