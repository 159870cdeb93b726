// operator-node: the planning contract. The physical passes — property
// planning, DAG analysis, MR spill insertion, parallel placement, EXPLAIN —
// reach an operator's inputs only through the Node contract it implements
// (exec/node.go); an Operator that does not implement Node is an opaque
// leaf to all of them. That is right for a true leaf and silently wrong for
// an operator that owns inputs: the subtree under it gets no enforcer
// elision, no parallelism, no MR stage boundaries and no EXPLAIN lines, and
// every result is still correct, so no test notices. In a package that
// declares Operator and Node, or imports the package that does, an Operator
// implementation with an Operator or []Operator field must implement Node.
package lint

import (
	"fmt"
	"go/types"
	"strings"
)

const operatorNodeName = "operator-node"

// OperatorNode is the planning-contract analyzer.
var OperatorNode = &Analyzer{
	Name: operatorNodeName,
	Doc:  "an Operator that owns Operator inputs must implement the Node planning contract",
	Run:  runOperatorNode,
}

func runOperatorNode(w *Workspace) []Diagnostic {
	var diags []Diagnostic
	for _, decl := range w.Pkgs {
		op, node := operatorInterface(decl), packageInterface(decl, "Node")
		if op == nil || node == nil {
			continue
		}
		for _, pkg := range w.Pkgs {
			if pkg != decl && !importsPackage(pkg, decl) {
				continue
			}
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				ptr := types.NewPointer(tn.Type())
				if !types.Implements(ptr, op) || types.Implements(ptr, node) {
					continue
				}
				if fields := operatorInputFields(st, op); len(fields) > 0 {
					diags = append(diags, Diagnostic{
						Pos:      w.Position(tn.Pos()),
						Analyzer: operatorNodeName,
						Message: fmt.Sprintf("%s owns operator input %s but does not implement Node; the planning passes and EXPLAIN stop at it",
							name, strings.Join(fields, ", ")),
					})
				}
			}
		}
	}
	return diags
}

func importsPackage(pkg, dep *Package) bool {
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == dep.Types.Path() {
			return true
		}
	}
	return false
}
