// close-and-cancel: the operator cleanup and cancellation contracts.
//
//   - Close discipline: an Operator implementation owning Operator-typed
//     inputs (fields of the interface type, or slices of it) must close
//     each of them in its Close method — directly, through a range loop,
//     or by delegating to another method of the same type. A skipped
//     input leaks governor reservations and spill files for the whole
//     subtree under it.
//   - Cancellation checkpoints: a batch-pull loop (a for statement calling
//     .Next() on something) that can keep iterating without returning a
//     batch to its caller — the drain shape every blocking operator uses
//     to materialize its input — must poll CheckCanceled (or run under
//     DrainContext) each iteration, or a canceled query keeps
//     materializing until EOF.
//
// Both rules apply to packages that declare an Operator interface (the
// exec package; fixtures declare their own).
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CloseAndCancel is the cleanup/cancellation analyzer.
const closeAndCancelName = "close-and-cancel"

var CloseAndCancel = &Analyzer{
	Name: closeAndCancelName,
	Doc:  "Operator.Close must close inputs; unbounded batch loops must poll cancellation",
	Run:  runCloseAndCancel,
}

func runCloseAndCancel(w *Workspace) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range w.Pkgs {
		iface := operatorInterface(pkg)
		if iface == nil {
			continue
		}
		diags = append(diags, checkCloseDiscipline(w, pkg, iface)...)
		diags = append(diags, checkCancelCheckpoints(w, pkg)...)
	}
	return diags
}

// operatorInterface finds a package-level interface named Operator.
func operatorInterface(pkg *Package) *types.Interface {
	return packageInterface(pkg, "Operator")
}

// packageInterface finds a package-level interface by name.
func packageInterface(pkg *Package, name string) *types.Interface {
	obj := pkg.Types.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// operatorInputFields names the struct's fields typed Operator or
// []Operator: the inputs it owns.
func operatorInputFields(st *types.Struct, iface *types.Interface) []string {
	var fields []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		ft := f.Type()
		if sl, isSlice := ft.Underlying().(*types.Slice); isSlice {
			ft = sl.Elem()
		}
		if types.Identical(ft, iface.Underlying()) || isNamedOperator(ft, iface) {
			fields = append(fields, f.Name())
		}
	}
	return fields
}

// checkCloseDiscipline verifies every Operator implementation closes its
// Operator-typed fields in Close.
func checkCloseDiscipline(w *Workspace, pkg *Package, iface *types.Interface) []Diagnostic {
	// Index methods by (named type, name) and precompute, per method, the
	// set of input-field names it closes.
	methods := map[*types.Named]map[string]*FuncInfo{}
	for _, fn := range w.Functions() {
		if fn.Pkg != pkg || fn.Decl.Recv == nil || len(fn.Decl.Recv.List) == 0 {
			continue
		}
		tv, ok := pkg.Info.Types[fn.Decl.Recv.List[0].Type]
		if !ok {
			continue
		}
		named := namedOf(tv.Type)
		if named == nil {
			continue
		}
		if methods[named] == nil {
			methods[named] = map[string]*FuncInfo{}
		}
		methods[named][fn.Obj.Name()] = fn
	}

	closers := closerParamIndexes(w)

	var diags []Diagnostic
	for named, ms := range methods {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if !types.Implements(types.NewPointer(named), iface) && !types.Implements(named, iface) {
			continue
		}
		inputFields := operatorInputFields(st, iface)
		if len(inputFields) == 0 {
			continue
		}
		closeFn := ms["Close"]
		if closeFn == nil {
			continue // interface satisfied via embedding; the embedded type is checked itself
		}
		closed := map[string]bool{}
		collectClosedFields(pkg, closeFn.Decl.Body, closed)
		// Delegation: Close may call a method of the same type that does
		// the closing, or hand a field to a helper whose parameter it
		// closes (closeWorkers(m.Workers, ...)).
		ast.Inspect(closeFn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := Callee(pkg.Info, call)
			if callee == nil {
				return true
			}
			for name, m := range ms {
				if m.Obj == callee && name != "Close" {
					collectClosedFields(pkg, m.Decl.Body, closed)
				}
			}
			if idxs := closers[callee]; idxs != nil {
				for i, arg := range call.Args {
					if !idxs[i] {
						continue
					}
					if sel, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok {
						closed[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		for _, f := range inputFields {
			if !closed[f] {
				diags = append(diags, Diagnostic{
					Pos:      w.Position(closeFn.Decl.Pos()),
					Analyzer: closeAndCancelName,
					Message: fmt.Sprintf("%s.Close never closes input field %q; the subtree under it leaks reservations and spill files",
						named.Obj().Name(), f),
				})
			}
		}
	}
	return diags
}

// closerParamIndexes finds functions that close one of their parameters —
// directly (p.Close()) or by ranging over a parameter slice and closing
// each element (closeWorkers). Passing a field to such a helper satisfies
// the close discipline for that field.
func closerParamIndexes(w *Workspace) map[*types.Func]map[int]bool {
	out := map[*types.Func]map[int]bool{}
	for _, fn := range w.Functions() {
		info := fn.Pkg.Info
		paramIdx := map[types.Object]int{}
		if fn.Decl.Type.Params != nil {
			i := 0
			for _, field := range fn.Decl.Type.Params.List {
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						paramIdx[obj] = i
					}
					i++
				}
			}
		}
		if len(paramIdx) == 0 {
			continue
		}
		// Range variables over a parameter slice stand in for it.
		elemOf := map[types.Object]types.Object{}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			r, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			x, ok := ast.Unparen(r.X).(*ast.Ident)
			if !ok {
				return true
			}
			src := info.Uses[x]
			if src == nil {
				return true
			}
			if _, isParam := paramIdx[src]; !isParam {
				return true
			}
			if id, ok := r.Value.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					elemOf[obj] = src
				}
			}
			return true
		})
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Close" {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true
			}
			if src, ok := elemOf[obj]; ok {
				obj = src
			}
			if i, ok := paramIdx[obj]; ok {
				if out[fn.Obj] == nil {
					out[fn.Obj] = map[int]bool{}
				}
				out[fn.Obj][i] = true
			}
			return true
		})
	}
	return out
}

// isNamedOperator matches a named interface type whose name is Operator
// (the field may use a package-qualified alias of the same interface).
func isNamedOperator(t types.Type, iface *types.Interface) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Name() != "Operator" {
		return false
	}
	u, ok := n.Underlying().(*types.Interface)
	return ok && types.Identical(u, iface.Underlying())
}

// collectClosedFields records receiver fields that have .Close() called on
// them in body — directly (x.Field.Close()) or through a range variable
// (for _, in := range x.Fields { in.Close() }).
func collectClosedFields(pkg *Package, body *ast.BlockStmt, closed map[string]bool) {
	// Range variables standing for elements of a field slice.
	rangeVars := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			if sel, ok := ast.Unparen(r.X).(*ast.SelectorExpr); ok {
				if id, ok := r.Value.(*ast.Ident); ok {
					if obj := pkg.Info.Defs[id]; obj != nil {
						rangeVars[obj] = sel.Sel.Name
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		switch recv := ast.Unparen(sel.X).(type) {
		case *ast.SelectorExpr:
			closed[recv.Sel.Name] = true
		case *ast.Ident:
			if obj := pkg.Info.Uses[recv]; obj != nil {
				if field, ok := rangeVars[obj]; ok {
					closed[field] = true
				}
			}
		}
		return true
	})
}

// checkCancelCheckpoints flags drain-shaped batch loops without a
// cancellation poll.
func checkCancelCheckpoints(w *Workspace, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, fn := range w.Functions() {
		if fn.Pkg != pkg {
			continue
		}
		info := pkg.Info
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			pullsBatches := false
			hasCheckpoint := false
			returnsBatch := false
			ast.Inspect(loop.Body, func(m ast.Node) bool {
				switch x := m.(type) {
				case *ast.CallExpr:
					if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "Next":
							pullsBatches = true
						case "CheckCanceled", "DrainContext":
							hasCheckpoint = true
						}
					}
					if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
						if id.Name == "CheckCanceled" || id.Name == "DrainContext" {
							hasCheckpoint = true
						}
					}
				case *ast.ReturnStmt:
					// A loop that hands each produced batch back to its
					// caller is bounded per call; only loops that can spin
					// to EOF without yielding need their own checkpoint.
					if len(x.Results) > 0 {
						if t := info.Types[x.Results[0]].Type; t != nil && isBatchPtr(t) {
							if id, ok := ast.Unparen(x.Results[0]).(*ast.Ident); !ok || id.Name != "nil" {
								returnsBatch = true
							}
						}
					}
				}
				return true
			})
			if pullsBatches && !hasCheckpoint && !returnsBatch {
				diags = append(diags, Diagnostic{
					Pos:      w.Position(loop.Pos()),
					Analyzer: closeAndCancelName,
					Message: fmt.Sprintf("drain loop in %s pulls batches without a CheckCanceled checkpoint; a canceled query keeps materializing to EOF",
						fn.Obj.Name()),
				})
			}
			return true
		})
	}
	return diags
}

// isBatchPtr matches *vector.Batch (any package's Batch, for fixtures).
func isBatchPtr(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	return typeNamed(p.Elem(), "Batch")
}
