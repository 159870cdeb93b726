package hs2

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSetRejectsUnknownHiveKey: a SET of a hive.* key the server never reads
// — misspelled, or retired like hive.sort.parallel and the §4.2 re-execution
// simulation's three — is an error naming the key, every registered key is
// accepted, and other namespaces are free.
func TestSetRejectsUnknownHiveKey(t *testing.T) {
	s := NewServer(Config{}).NewSession()
	for _, key := range []string{
		"hive.sort.parallel", "hive.spool.parallel", "hive.paralellism", "HIVE.No.Such.Key",
		"hive.exec.memory.limit.rows", "hive.query.reexecution.enabled", "hive.query.reexecution.strategy",
	} {
		_, err := s.Execute("SET " + key + " = false")
		if err == nil || !strings.Contains(err.Error(), strings.ToLower(key)) {
			t.Errorf("SET %s: err = %v, want an error naming the key", key, err)
		}
		if _, stored := s.conf[strings.ToLower(key)]; stored {
			t.Errorf("SET %s: rejected key was stored", key)
		}
	}
	for key, knob := range knobRegistry {
		if _, err := s.Execute("SET " + key + " = " + knob.Default); err != nil {
			t.Errorf("SET %s: registered key rejected: %v", key, err)
		}
	}
	mustExec(t, s, "SET mapreduce.job.name = nightly")
	if got := s.Conf("mapreduce.job.name"); got != "nightly" {
		t.Errorf("non-hive key: Conf = %q, want it stored", got)
	}
}

// TestPlannerFingerprintCoversOptions: the plan-cache key's fingerprint
// changes when, and only when, an option that shapes logical planning
// changes. Every field of queryOptions — the optimizer's own opt.Options
// included — must appear in the table, so a new planner option cannot be
// added without reaching the key, and the key cannot fragment on options the
// planner never sees.
func TestPlannerFingerprintCoversOptions(t *testing.T) {
	flips := map[string]func(*queryOptions){
		"planner.Options.JoinReorder": func(o *queryOptions) { o.planner.JoinReorder = !o.planner.JoinReorder },
		"planner.Options.Semijoin":    func(o *queryOptions) { o.planner.Semijoin = !o.planner.Semijoin },
		"planner.Options.SharedWork":  func(o *queryOptions) { o.planner.SharedWork = !o.planner.SharedWork },
		"planner.Options.PruneCols":   func(o *queryOptions) { o.planner.PruneCols = !o.planner.PruneCols },
		"planner.v12":                 func(o *queryOptions) { o.planner.v12 = !o.planner.v12 },
		"planner.mvRewrite":           func(o *queryOptions) { o.planner.mvRewrite = !o.planner.mvRewrite },
		"planCache":                   func(o *queryOptions) { o.planCache = !o.planCache },
		"resultCache":                 func(o *queryOptions) { o.resultCache = !o.resultCache },
		"mode":                        func(o *queryOptions) { o.mode++ },
		"llapIO":                      func(o *queryOptions) { o.llapIO = !o.llapIO },
		"elevator":                    func(o *queryOptions) { o.elevator = !o.elevator },
		"dop":                         func(o *queryOptions) { o.dop++ },
		"targetStripes":               func(o *queryOptions) { o.targetStripes++ },
		"props":                       func(o *queryOptions) { o.props = !o.props },
		"budget":                      func(o *queryOptions) { o.budget++ },
		"timeout":                     func(o *queryOptions) { o.timeout++ },
		"queueTimeout":                func(o *queryOptions) { o.queueTimeout++ },
		"containerLaunch":             func(o *queryOptions) { o.containerLaunch++ },
	}
	var fields []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
			} else {
				fields = append(fields, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeOf(queryOptions{}))
	if len(fields) != len(flips) {
		t.Errorf("queryOptions has %d fields, the table flips %d", len(fields), len(flips))
	}
	base := NewServer(Config{}).NewSession().resolveOptions()
	for _, name := range fields {
		flip, ok := flips[name]
		if !ok {
			t.Errorf("queryOptions.%s is not in the table: say whether it shapes planning", name)
			continue
		}
		o := base
		flip(&o)
		if reflect.DeepEqual(o, base) {
			t.Errorf("%s: the flip changed nothing", name)
		}
		changed := o.planner.fingerprint() != base.planner.fingerprint()
		if planner := strings.HasPrefix(name, "planner."); changed != planner {
			t.Errorf("%s: fingerprint changed = %v, want %v", name, changed, planner)
		}
	}
}

var updateKnobDocs = flag.Bool("update", false, "rewrite the knob table in README.md")

// TestKnobDocs keeps README.md's Configuration table generated from
// knobRegistry: it fails when the text between the markers is stale, and
// `go test ./internal/hs2 -run KnobDocs -update` rewrites it.
func TestKnobDocs(t *testing.T) {
	const path, begin, end = "../../README.md", "<!-- knobs:begin -->\n", "<!-- knobs:end -->"
	keys := make([]string, 0, len(knobRegistry))
	for k := range knobRegistry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	table.WriteString("| key | default | what it does |\n|---|---|---|\n")
	for _, k := range keys {
		kn := knobRegistry[k]
		def := "`" + kn.Default + "`"
		if kn.Startup {
			def = "set at server start"
		}
		fmt.Fprintf(&table, "| `%s` | %s | %s |\n", k, def, kn.Doc)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	i, j := strings.Index(readme, begin), strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("%s has no %s ... %s section", path, strings.TrimSpace(begin), end)
	}
	want := readme[:i+len(begin)] + table.String() + readme[j:]
	if want == readme {
		return
	}
	if !*updateKnobDocs {
		t.Fatalf("%s: the Configuration table is stale; run `go test ./internal/hs2 -run KnobDocs -update`", path)
	}
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
}
