// no-row-boxing: the columnar hot-path contract. (*vector.Batch).Row
// materializes one live row as a freshly allocated []Datum — 64 bytes per
// cell plus the slice — so calling it once per row of a batch turns a
// vectorized operator into a row-at-a-time one and makes it the query's
// largest allocator (the hash join was, until it moved to a columnar build
// table). Inside package exec a Row call lexically within a for/range loop
// is a finding; the structures still boxed by design carry an annotated
// suppression naming the follow-up that removes them.
package lint

import (
	"fmt"
	"go/ast"
)

const noRowBoxingName = "no-row-boxing"

// NoRowBoxing is the per-row boxing analyzer.
var NoRowBoxing = &Analyzer{
	Name: noRowBoxingName,
	Doc:  "exec operators must not call (*vector.Batch).Row inside a loop; keep rows columnar",
	Run:  runNoRowBoxing,
}

func runNoRowBoxing(w *Workspace) []Diagnostic {
	var diags []Diagnostic
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
