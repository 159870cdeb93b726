package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hive "repro"
)

func TestGeneratorIsSeeded(t *testing.T) {
	for name, gen := range map[string]func(Scale, int64) *Dataset{"tpcds": Generate, "acid": GenerateAcid} {
		a := strings.Join(gen(scaleSmoke, 7).Script(), ";\n")
		b := strings.Join(gen(scaleSmoke, 7).Script(), ";\n")
		c := strings.Join(gen(scaleSmoke, 8).Script(), ";\n")
		if a != b {
			t.Errorf("%s: the same seed gave two different load scripts", name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same load script", name)
		}
	}
}

func TestGeneratorCountsWhatItEmits(t *testing.T) {
	d := Generate(scaleSmoke, 3)
	var rows, cents int64
	for i := range d.PartRows {
		rows += d.PartRows[i]
		cents += d.PartCents[i]
	}
	if rows != d.SalesRows || rows != int64(scaleSmoke.SalesRows) || cents != d.SalesCents || d.MaxTicket != rows {
		t.Errorf("partition totals %d rows / %d cents, dataset says %d / %d, tickets %d", rows, cents, d.SalesRows, d.SalesCents, d.MaxTicket)
	}
	var loaded int64
	for _, n := range d.InsertRows {
		loaded += int64(n)
	}
	if loaded != d.TotalRows() || len(d.InsertRows) != len(d.Inserts) {
		t.Errorf("InsertRows does not describe Inserts")
	}
}

// TestNoSimulatedLatency: the benchmark times CPU, never the sleep of the
// storage latency model. No workload turns the model on, and a warehouse
// opened the way the benchmark opens it reads without it: the model charges
// at least 30 µs per read, so 200 reads would take 6 ms.
func TestNoSimulatedLatency(t *testing.T) {
	for _, def := range workloads {
		for _, smoke := range []bool{false, true} {
			if def.config(def.scale(smoke)).DiskLatency {
				t.Errorf("%s turns DiskLatency on", def.name)
			}
		}
	}
	wh, err := hive.Open(tpcdsWarm.config(scaleSmoke))
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	fs := wh.Server().FS
	if err := fs.WriteFile("/probe", []byte("x")); err != nil {
		t.Fatal(err)
	}
	best := time.Hour
	for trial := 0; trial < 5; trial++ {
		t0 := time.Now()
		for i := 0; i < 200; i++ {
			if _, err := fs.ReadFile("/probe"); err != nil {
				t.Fatal(err)
			}
		}
		best = min(best, time.Since(t0))
	}
	if best > 3*time.Millisecond {
		t.Errorf("200 reads took %s: the file system is charging latency", best)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the same
// workloads with the same reasons, the same metrics with the same units, in
// the same order.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// TestSmoke runs all five workloads untraced and traced on 2 000 rows, and
// checks that every statement was right and every metric was reported. The
// smoke digests are compared with golden.json like the full-scale ones.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var buf bytes.Buffer
			opt := options{workload: def.name, seed: defaultSeed, seconds: 1, trace: trace, smoke: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			if err := runOne(&buf, opt); err != nil {
				t.Fatalf("%s trace=%d: %v", def.name, trace, err)
			}
			res := lastLine(t, buf.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s", def.name, trace, res.Correct, res.Failed, res.Attempted, buf.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", def.name, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok || got.Unit != m.unit:
					t.Errorf("%s trace=%d: metric %s [%s] missing, got %+v", def.name, trace, m.name, m.unit, got)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
					t.Errorf("%s: %s = %g", def.name, m.name, got.Value)
				case trace == 0 && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", def.name, m.name)
				}
			}
			if trace == 1 {
				if fi, err := os.Stat(opt.traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span file: %v", def.name, err)
				}
			}
		}
	}
}

func TestGoldenCoversSmokeAndFull(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []string{"smoke", "full"} {
		if n := len(g[scale]["tpcds_warm"]); n != len(tpcdsQueries)+1 {
			t.Errorf("golden.json has %d digests for tpcds_warm at %s, want %d", n, scale, len(tpcdsQueries)+1)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w","why":"x"}],"end_to_end":[
		{"name":"steady","unit":"s","better":"lower","bound":0.05},
		{"name":"slower","unit":"s","better":"lower","bound":0.05},
		{"name":"noisy","unit":"1/s","better":"higher","bound":0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, slower float64, noisy []float64) string {
		var buf bytes.Buffer
		for i, n := range noisy {
			rep := Report{Workload: "w", Metrics: map[string]Metric{
				"steady": {Value: 1 + 0.001*float64(i)}, "slower": {Value: slower + 0.001*float64(i)}, "noisy": {Value: n}}}
			line, _ := json.Marshal(rep)
			buf.Write(append(line, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	noisy := []float64{100, 140, 90, 130, 110}
	var out bytes.Buffer
	worse, err := compareFiles(&out, spec, write("old.jsonl", 1, noisy), write("new.jsonl", 1.2, noisy))
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 20 % slowdown against a 5 % bound was not reported as worse")
	}
	for metric, verdict := range map[string]string{"steady": "ok", "slower": "worse", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s in\n%s", metric, verdict, out.String())
		}
	}
}
