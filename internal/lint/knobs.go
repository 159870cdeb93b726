// conf-knob-registry: every "hive.*" configuration string in the tree
// must be declared in the single knob table (the package-level var whose
// doc comment carries a lint:knob-registry marker), and every declared
// knob must actually be read or written somewhere outside the table.
// This catches both misspellings — a confBool("hive.query.result.cache")
// typo silently reads an empty default — and dead knobs that outlived the
// code they configured. Knobs marked Startup: true are consumed at server
// boot rather than per-session and are exempt from the dead-knob check.
// Test files count as usages (many knobs are exercised only by the e2e
// suites' SetConf calls). A per-query knob is also read in one place: a
// non-Startup knob passed to Conf/confBool/confInt at more than one non-test
// site is a finding — options resolve once per statement and are handed
// down typed, so a second reader is a second spelling to keep in step.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// ConfKnobRegistry is the knob-table analyzer.
const confKnobRegistryName = "conf-knob-registry"

var ConfKnobRegistry = &Analyzer{
	Name: confKnobRegistryName,
	Doc:  "every hive.* literal must be declared in the lint:knob-registry table; declared knobs must be used, and read at one site",
	Run:  runConfKnobRegistry,
}

var knobRe = regexp.MustCompile(`^hive\.[a-z][a-z0-9._]*$`)

const registryMarker = "lint:knob-registry"

type knobDecl struct {
	pos     token.Pos
	startup bool
}

func runConfKnobRegistry(w *Workspace) []Diagnostic {
	declared := map[string]*knobDecl{}
	var registryRanges []ast.Node

	// Pass 1: find marked registry declarations and collect their keys.
	for _, pkg := range w.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				if gd.Doc == nil || !strings.Contains(gd.Doc.Text(), registryMarker) {
					continue
				}
				registryRanges = append(registryRanges, gd)
				collectRegistryKeys(gd, declared)
			}
		}
	}

	var diags []Diagnostic
	if len(registryRanges) == 0 {
		// No registry declared anywhere: every knob literal is undeclared.
		// Report once at each use rather than failing silently.
		for _, pkg := range w.Pkgs {
			for _, f := range pkg.Files {
				forEachKnobLiteral(f, func(lit *ast.BasicLit, knob string) {
					diags = append(diags, Diagnostic{
						Pos:      w.Position(lit.Pos()),
						Analyzer: confKnobRegistryName,
						Message:  fmt.Sprintf("conf knob %q used but no lint:knob-registry table is declared", knob),
					})
				})
			}
		}
		return diags
	}

	inRegistry := func(pos token.Pos) bool {
		for _, r := range registryRanges {
			if nodeContains(r, pos) {
				return true
			}
		}
		return false
	}

	// Pass 2: every knob literal outside the registry must be declared;
	// count usages (test files included, syntax-only).
	used := map[string]bool{}
	for _, pkg := range w.Pkgs {
		for _, f := range pkg.Files {
			forEachKnobLiteral(f, func(lit *ast.BasicLit, knob string) {
				if inRegistry(lit.Pos()) {
					return
				}
				used[knob] = true
				if _, ok := declared[knob]; !ok {
					diags = append(diags, Diagnostic{
						Pos:      w.Position(lit.Pos()),
						Analyzer: confKnobRegistryName,
						Message:  fmt.Sprintf("conf knob %q is not declared in the knob registry (misspelled or undeclared)", knob),
					})
				}
			})
		}
		for _, f := range pkg.TestFiles {
			forEachKnobLiteral(f, func(lit *ast.BasicLit, knob string) {
				used[knob] = true
			})
		}
	}

	// Pass 3: one reader per knob. Files are visited in load order, so the
	// site that keeps its read is the first one; every later one is flagged.
	readAt := map[string]bool{}
	for _, pkg := range w.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if callee := Callee(pkg.Info, call); callee == nil || !confReaders[callee.Name()] {
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				knob := strings.Trim(lit.Value, `"`)
				if d := declared[knob]; d == nil || d.startup {
					return true
				}
				if readAt[knob] {
					diags = append(diags, Diagnostic{
						Pos:      w.Position(lit.Pos()),
						Analyzer: confKnobRegistryName,
						Message:  fmt.Sprintf("conf knob %q is read at more than one site; resolve it once and hand the typed value down", knob),
					})
				}
				readAt[knob] = true
				return true
			})
		}
	}

	// Pass 4: dead knobs — declared, not startup-scoped, never used.
	for knob, d := range declared {
		if !d.startup && !used[knob] {
			diags = append(diags, Diagnostic{
				Pos:      w.Position(d.pos),
				Analyzer: confKnobRegistryName,
				Message:  fmt.Sprintf("conf knob %q is declared but never read or written outside the registry (dead knob)", knob),
			})
		}
	}
	return diags
}

// confReaders are the functions that read a knob's value by key.
var confReaders = map[string]bool{"Conf": true, "confBool": true, "confInt": true}

// collectRegistryKeys walks a registry var declaration: map keys (or Name
// fields in a slice-of-struct table) that look like knobs become declared
// entries; a Startup: true field in the entry's value marks it
// boot-time-only.
func collectRegistryKeys(gd *ast.GenDecl, declared map[string]*knobDecl) {
	ast.Inspect(gd, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(kv.Key).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		knob := strings.Trim(lit.Value, `"`)
		if !knobRe.MatchString(knob) {
			return true
		}
		d := &knobDecl{pos: lit.Pos()}
		ast.Inspect(kv.Value, func(m ast.Node) bool {
			if fv, ok := m.(*ast.KeyValueExpr); ok {
				if id, ok := fv.Key.(*ast.Ident); ok && id.Name == "Startup" {
					if b, ok := fv.Value.(*ast.Ident); ok && b.Name == "true" {
						d.startup = true
					}
				}
			}
			return true
		})
		declared[knob] = d
		return true
	})
}

// forEachKnobLiteral invokes fn for every knob-shaped string literal in a
// file.
func forEachKnobLiteral(f *ast.File, fn func(lit *ast.BasicLit, knob string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		knob := strings.Trim(lit.Value, `"`)
		if knobRe.MatchString(knob) {
			fn(lit, knob)
		}
		return true
	})
}
