// snapshot-pinning: the one-snapshot-per-query contract (PR 8's TOCTOU
// class). The hs2 query pipeline pins a single transaction snapshot that
// must thread through the whole run — the result-cache lookup, every scan,
// and the revalidated Fill. Below the pinning frontier (the pipeline's
// execute stage, the scan factory it builds and everything the physical
// operators reach) nothing may take a fresh snapshot: a GetSnapshot call
// down there reads state a concurrent writer may already have moved past
// the watermarks the query was keyed on. Validity derivation
// (GetValidWriteIds) is allowed only in functions that demonstrably thread
// a pinned txn.Snapshot (it appears among their parameters or receiver).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const snapshotPinningName = "snapshot-pinning"

// SnapshotPinning is the pinned-snapshot analyzer, rooted at the hs2
// pipeline's execute stage.
var SnapshotPinning = NewSnapshotPinning("hs2.query.execute")

// NewSnapshotPinning builds the analyzer over the given zone roots, each
// "pkg.func" or "pkg.recv.method". The exec and dag packages are roots in
// their entirety (every operator method runs below the frontier). A root
// that matches no function is itself a finding: renaming the function must
// not silently shrink the zone.
func NewSnapshotPinning(roots ...string) *Analyzer {
	return &Analyzer{
		Name: snapshotPinningName,
		Doc:  "no fresh snapshots below the run/scan pinning frontier (the pipeline's execute stage, scan factories, exec operators)",
		Run:  func(w *Workspace) []Diagnostic { return runSnapshotPinning(w, roots) },
	}
}

var snapshotZonePkgs = map[string]bool{"exec": true, "dag": true}

// qualifiedName renders a declaration as pkg.func or pkg.recv.method.
func qualifiedName(fn *FuncInfo) string {
	name := fn.Pkg.Types.Name() + "."
	if recv := fn.Obj.Signature().Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Obj.Name()
}

func runSnapshotPinning(w *Workspace, rootNames []string) []Diagnostic {
	var diags []Diagnostic
	var roots []*types.Func
	matched := map[string]bool{}
	for _, fn := range w.Functions() {
		q := qualifiedName(fn)
		for _, r := range rootNames {
			if r == q {
				matched[r] = true
				roots = append(roots, fn.Obj)
			}
		}
		if snapshotZonePkgs[fn.Pkg.Types.Name()] {
			roots = append(roots, fn.Obj)
		}
	}
	for _, r := range rootNames {
		if matched[r] {
			continue
		}
		// Report at the package that should hold the root, when loaded.
		var pos token.Position
		pkgName, _, _ := strings.Cut(r, ".")
		for _, pkg := range w.Pkgs {
			if pkg.Types.Name() == pkgName && len(pkg.Files) > 0 {
				pos = w.Position(pkg.Files[0].Package)
				break
			}
		}
		diags = append(diags, Diagnostic{
			Pos:      pos,
			Analyzer: snapshotPinningName,
			Message:  fmt.Sprintf("zone root %s matches no function: the pinning zone would silently shrink; point the analyzer at the function's new name", r),
		})
	}
	zone := w.reachable(roots)

	for _, fn := range w.Functions() {
		if !zone[fn.Obj] {
			continue
		}
		hasSnapParam := false
		for _, o := range funcParamsAndReceiver(fn.Pkg, fn.Decl) {
			if typeNamed(o.Type(), "Snapshot") {
				hasSnapParam = true
			}
		}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "GetSnapshot":
				diags = append(diags, Diagnostic{
					Pos:      w.Position(call.Pos()),
					Analyzer: snapshotPinningName,
					Message: fmt.Sprintf("%s opens a fresh snapshot inside the run/scan zone; thread the query's pinned snapshot instead (TOCTOU: lookup and scan would see different write sets)",
						fn.Obj.Name()),
				})
			case "GetValidWriteIds":
				if !hasSnapParam {
					diags = append(diags, Diagnostic{
						Pos:      w.Position(call.Pos()),
						Analyzer: snapshotPinningName,
						Message: fmt.Sprintf("%s derives write-id validity without a pinned Snapshot parameter in scope; pass the query's snapshot down instead of re-deriving visibility",
							fn.Obj.Name()),
					})
				}
			}
			return true
		})
	}
	return diags
}
