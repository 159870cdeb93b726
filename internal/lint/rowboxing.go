// no-row-boxing: the columnar hot-path contract. (*vector.Batch).Row
// materializes one live row as a freshly allocated []Datum — 64 bytes per
// cell plus the slice — so calling it once per row of a batch turns a
// vectorized operator into a row-at-a-time one and makes it the query's
// largest allocator (the hash join was, until it moved to a columnar build
// table). Inside package exec a Row call lexically within a for/range loop
// is a finding; the structures still boxed by design carry an annotated
// suppression naming the follow-up that removes them.
//
// The other half of the contract is what an operator keeps: a [][]Datum
// field on an Operator implementation of package exec is a boxed row store
// — the shape the sort, window and spool operators had until they moved onto
// columnar vectors — and is a finding at the field.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

const noRowBoxingName = "no-row-boxing"

// NoRowBoxing is the per-row boxing analyzer.
var NoRowBoxing = &Analyzer{
	Name: noRowBoxingName,
	Doc:  "exec operators must not call (*vector.Batch).Row inside a loop; keep rows columnar",
	Run:  runNoRowBoxing,
}

func runNoRowBoxing(w *Workspace) []Diagnostic {
	diags := boxedRowFields(w)
	for _, fn := range w.Functions() {
		if fn.Pkg.Types.Name() != "exec" {
			continue
		}
		var visit func(n ast.Node, inLoop bool)
		visit = func(n ast.Node, inLoop bool) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch x := m.(type) {
				case *ast.ForStmt:
					visit(x.Body, true)
					return false
				case *ast.RangeStmt:
					visit(x.Body, true)
					return false
				case *ast.CallExpr:
					if !inLoop {
						return true
					}
					callee := Callee(fn.Pkg.Info, x)
					if callee == nil || callee.Name() != "Row" {
						return true
					}
					if recv := callee.Signature().Recv(); recv != nil && typeNamed(recv.Type(), "Batch") {
						diags = append(diags, Diagnostic{
							Pos:      w.Position(x.Pos()),
							Analyzer: noRowBoxingName,
							Message: fmt.Sprintf("%s boxes a row per loop iteration with Batch.Row; gather or append columns instead (vector.Gather, vector.AppendRows)",
								fn.Obj.Name()),
						})
					}
				}
				return true
			})
		}
		visit(fn.Decl.Body, false)
	}
	return diags
}

// boxedRowFields reports the [][]Datum fields of package exec's Operator
// implementations.
func boxedRowFields(w *Workspace) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range w.Pkgs {
		op := operatorInterface(pkg)
		if pkg.Types.Name() != "exec" || op == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || !types.Implements(types.NewPointer(tn.Type()), op) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !isDatumRows(f.Type()) {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:      w.Position(f.Pos()),
					Analyzer: noRowBoxingName,
					Message: fmt.Sprintf("operator %s keeps boxed rows in field %s ([][]Datum); hold column vectors instead (the exec rowStore)",
						name, f.Name()),
				})
			}
		}
	}
	return diags
}

// isDatumRows matches [][]Datum.
func isDatumRows(t types.Type) bool {
	outer, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	inner, ok := outer.Elem().Underlying().(*types.Slice)
	return ok && typeNamed(inner.Elem(), "Datum")
}
