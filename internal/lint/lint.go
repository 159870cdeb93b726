// Package lint is hivelint's analyzer framework: repo-specific invariants
// — the governor/snapshot/aliasing/cleanup contracts the paper's LLAP and
// workload-management design depends on — each enforced mechanically as a
// named analyzer over the type-checked module. The driver (cmd/hivelint)
// loads every package, runs the analyzers, applies //lint:ignore
// suppressions and exits non-zero on findings, so `make check` fails when
// a PR reintroduces a bug class an earlier PR fixed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant checked over the whole workspace.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(w *Workspace) []Diagnostic
}

// Analyzers returns the full hivelint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ReservationBalance,
		SnapshotPinning,
		NoAliasEscape,
		CloseAndCancel,
		ConfKnobRegistry,
		NoRowBoxing,
		OperatorNode,
	}
}

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	analyzer string
	reason   string
	line     int
	used     bool
	pos      token.Position
}

var suppressRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s*(.*)$`)

// collectSuppressions parses //lint:ignore <analyzer> <reason> directives
// from every file. A directive suppresses matching diagnostics on its own
// line and on the line directly below it (the conventional "comment above
// the flagged statement" placement). Malformed directives — no analyzer
// name or an empty reason — are themselves diagnostics: a suppression with
// no recorded rationale is how contracts rot silently.
func collectSuppressions(w *Workspace) (map[string][]*suppression, []Diagnostic) {
	byFile := map[string][]*suppression{}
	var bad []Diagnostic
	for _, pkg := range w.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//lint:ignore") {
						continue
					}
					pos := w.Position(c.Pos())
					m := suppressRe.FindStringSubmatch(c.Text)
					if m == nil || strings.TrimSpace(m[2]) == "" {
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  "malformed suppression: want //lint:ignore <analyzer> <reason>",
						})
						continue
					}
					byFile[pos.Filename] = append(byFile[pos.Filename], &suppression{
						analyzer: m[1], reason: strings.TrimSpace(m[2]), line: pos.Line, pos: pos,
					})
				}
			}
		}
	}
	return byFile, bad
}

// Run executes the analyzers over the workspace, applies suppressions, and
// returns surviving diagnostics sorted by position. Unused suppressions
// are reported so stale ignores cannot linger after the code they excused
// is gone.
func Run(w *Workspace, analyzers []*Analyzer) []Diagnostic {
	supp, diags := collectSuppressions(w)
	for _, a := range analyzers {
		for _, d := range a.Run(w) {
			if s := matchSuppression(supp[d.Pos.Filename], a.Name, d.Pos.Line); s != nil {
				s.used = true
				continue
			}
			diags = append(diags, d)
		}
	}
	for _, ss := range supp {
		for _, s := range ss {
			if !s.used {
				diags = append(diags, Diagnostic{
					Pos:      s.pos,
					Analyzer: "lint",
					Message:  fmt.Sprintf("unused suppression for %q: no diagnostic here", s.analyzer),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

func matchSuppression(ss []*suppression, analyzer string, line int) *suppression {
	for _, s := range ss {
		if s.analyzer == analyzer && (s.line == line || s.line == line-1) {
			return s
		}
	}
	return nil
}

// nodeContains reports whether the node's source range covers pos.
func nodeContains(n ast.Node, pos token.Pos) bool {
	return n != nil && n.Pos() <= pos && pos <= n.End()
}
