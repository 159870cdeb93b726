package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Each fixture package under testdata exercises one analyzer. Expected
// diagnostics are `// want "substring"` comments on the flagged line —
// every want must match a diagnostic and every diagnostic must match a
// want, so both false negatives and false positives fail the harness.
var fixtureAnalyzers = map[string]*Analyzer{
	"reserve":     ReservationBalance,
	"snapshot":    NewSnapshotPinning("snapshot.query.execute", "snapshot.query.renamedAway"),
	"alias":       NoAliasEscape,
	"closecancel": CloseAndCancel,
	"knobs":       ConfKnobRegistry,
	"rowboxing":   NoRowBoxing,
	"opnode":      OperatorNode,
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type want struct {
	file string
	line int
	sub  string
	hit  bool
}

func collectWants(w *Workspace) []*want {
	var out []*want
	for _, pkg := range w.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := w.Position(c.Pos())
					out = append(out, &want{file: pos.Filename, line: pos.Line, sub: m[1]})
				}
			}
		}
	}
	return out
}

func TestFixtures(t *testing.T) {
	for name, an := range fixtureAnalyzers {
		t.Run(name, func(t *testing.T) {
			w, err := LoadDir(filepath.Join("testdata", name))
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			got := Run(w, []*Analyzer{an})
			wants := collectWants(w)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want expectations", name)
			}
			var unexpected []string
			for _, d := range got {
				matched := false
				for _, want := range wants {
					if !want.hit && want.file == d.Pos.Filename && want.line == d.Pos.Line &&
						strings.Contains(d.Message, want.sub) {
						want.hit = true
						matched = true
						break
					}
				}
				if !matched {
					unexpected = append(unexpected, d.String())
				}
			}
			for _, want := range wants {
				if !want.hit {
					unexpected = append(unexpected,
						fmt.Sprintf("%s:%d: missing diagnostic containing %q", want.file, want.line, want.sub))
				}
			}
			for _, u := range unexpected {
				t.Error(u)
			}
		})
	}
}

// TestSuppressionHygiene checks the framework's own diagnostics: a stale
// //lint:ignore (nothing to suppress) and a reason-less one are findings.
func TestSuppressionHygiene(t *testing.T) {
	w, err := LoadDir(filepath.Join("testdata", "alias"))
	if err != nil {
		t.Fatal(err)
	}
	// Run with no analyzers: every suppression in the fixture is unused.
	diags := Run(w, nil)
	found := false
	for _, d := range diags {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "unused suppression") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an unused-suppression diagnostic, got %v", diags)
	}
}

// TestModuleClean pins the tentpole property: the repo's own tree has zero
// findings (every true positive fixed, every deliberate exception
// annotated).
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	w, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range Run(w, Analyzers()) {
		t.Errorf("unexpected finding: %s", d)
	}
}
