// Command benchmark is the repository's one benchmark: five named workloads
// against the public hive.Open / Session.Exec API with the storage latency
// model off, thirteen end-to-end metrics per workload, and a traced run that
// reports per-layer metrics. README.md in this directory defines every
// workload and metric; BENCHMARK.json at the repository root fixes their
// direction and bounds.
//
//	go run ./benchmark -workload tpcds_warm -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -out results.jsonl
//	go run ./benchmark -aa old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	traceOut     string
	out          string
	smoke        bool
	updateGolden bool
	aa           bool
}

// Report is one workload run, as written to -out.
type Report struct {
	Workload  string            `json:"workload"`
	Scale     string            `json:"scale"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      Host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Counts    map[string]int    `json:"sample_counts"`
	Metrics   map[string]Metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "all", "one of tpcds_warm, scan_cold, spill_budget, serve_point, acid_mixed, or all: each of the five in a process of its own")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "seed of the data generator and the statement mix")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the timed phase; it ends with the unit of work in progress")
	flag.IntVar(&opt.trace, "trace", 0, "1 runs the workload shortened under tracing, then the layer drivers, and reports the per-layer metrics")
	flag.StringVar(&opt.traceOut, "trace-out", "", "where the traced run writes its spans (default .bench_build/trace_<workload>.json)")
	flag.StringVar(&opt.out, "out", "", "append one JSON report per workload run to this file (the input of -aa)")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny data, one unit of work per phase: what `go test ./benchmark` runs")
	flag.BoolVar(&opt.updateGolden, "update-golden", false, "record this run's digests in benchmark/golden.json (default seed only)")
	flag.BoolVar(&opt.aa, "aa", false, "compare two -out files against the bounds in BENCHMARK.json: -aa old.jsonl new.jsonl")
	flag.Parse()

	if opt.aa {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -aa old.jsonl new.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		// An argument that is not a flag would also hide the -workload that
		// runEach appends for each child.
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	if opt.workload == "all" {
		err = runEach(os.Stdout)
	} else {
		err = runOne(os.Stdout, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// setupLoads is how many times the untraced run loads the warehouse; setup_s
// is the median. The traced and the smoke run load it once.
const setupLoads = 3

// runEach runs every workload in a process of its own, one after the other,
// the way the driver runs them: peak_rss_mb is a process-wide high-water
// mark, and no workload starts from the heap the one before it left.
func runEach(w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, def := range workloads {
		// The last -workload on a command line is the one that counts.
		cmd := exec.Command(self, append(os.Args[1:], "-workload", def.name)...)
		cmd.Stdout, cmd.Stderr = w, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
	}
	return nil
}

// runOne runs one workload in this process and prints its report.
func runOne(w io.Writer, opt options) error {
	if opt.seconds <= 0 || opt.trace < 0 || opt.trace > 1 {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	if opt.updateGolden && opt.seed != defaultSeed {
		return fmt.Errorf("-update-golden records seed %d only", defaultSeed)
	}
	def := workloadByName(opt.workload)
	if def == nil {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	rep, err := runWorkload(def, opt, golden)
	if err != nil {
		return fmt.Errorf("%s: %w", def.name, err)
	}
	return rep.print(w, opt.out)
}

// runWorkload sets one workload up, runs it and derives its metrics: the
// end-to-end ones from an untraced run, or, with -trace 1, the per-layer
// ones from a shortened traced run and the layer drivers.
func runWorkload(def *workloadDef, opt options, golden Golden) (*Report, error) {
	r := &run{opt: opt, def: def, scale: def.scale(opt.smoke), golden: golden}
	r.wd = startWatchdog(def.name)
	defer r.wd.close()
	r.ds = def.generate(r.scale, opt.seed)

	loads := setupLoads
	if opt.trace == 1 || opt.smoke {
		loads = 1
	}
	if err := r.setup(loads); err != nil {
		return nil, err
	}
	defer func() { _ = r.wh.Close() }()

	// Collect what loading left behind, so that the warm-up's heap grows
	// from the live data and not from the load's garbage: without this
	// peak_rss_mb moves by a quarter from run to run on serve_point.
	runtime.GC()
	drv, err := def.open(r)
	if err != nil {
		return nil, err
	}
	defer drv.close()
	warm := drv.warm()
	if opt.updateGolden {
		if err := updateGolden(r.scale.Name, def.name, drv.golden()); err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Workload: def.name, Scale: r.scale.Name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace == 1,
		Host: hostRecord(), Counts: map[string]int{"setups": len(r.setupS)}, Metrics: map[string]Metric{},
	}
	var phases []*samples
	if opt.trace == 0 {
		phases, err = r.measureEndToEnd(drv, rep)
	} else {
		phases, err = r.measureLayers(drv, rep)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range append(phases, warm) {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		rep.Errors = append(rep.Errors, p.errs...)
	}
	rep.Correct = rep.Failed == 0
	rep.FailRatio = ratio(float64(rep.Failed), float64(rep.Attempted))
	return rep, nil
}

// measureEndToEnd is the untraced run: the timed phase, then the storage
// count and, where the workload itself never compacts, the compaction of
// every partition of its fact table.
func (r *run) measureEndToEnd(drv driver, rep *Report) ([]*samples, error) {
	lim := limit{deadline: time.Duration(r.opt.seconds * float64(time.Second))}
	if r.opt.smoke {
		lim = limit{units: 1}
	}
	s := r.timed(drv, lim, nil)
	storedBytes, err := r.storedBytes()
	if err != nil {
		return nil, err
	}
	if len(s.compaction) == 0 {
		spent, err := compactAll(r, nil)
		if err != nil {
			return nil, err
		}
		s.compaction = []float64{spent.Seconds()}
	}
	vals, counts := endToEndMetrics(r, s, storedBytes, r.ds.LiveRows())
	for _, m := range endToEnd {
		rep.Metrics[m.name] = Metric{Value: vals[m.name], Unit: m.unit}
	}
	for k, n := range counts {
		rep.Counts[k] = n
	}
	return []*samples{s}, nil
}

// measureLayers is the traced run: the workload shortened, once untraced as
// the base of trace.overhead_ratio and once under the tracer, then the
// layer drivers against the same warehouse.
func (r *run) measureLayers(drv driver, rep *Report) ([]*samples, error) {
	short := limit{units: drv.shortUnits()}
	base := r.timed(drv, short, nil)
	tr := newTracer(r.def.name)
	before := counterValues(r.wh.Server())
	tr.sample("phase.begin", before)
	traced := r.timed(drv, short, tr)
	after := counterValues(r.wh.Server())
	tr.sample("phase.end", after)

	reps := 3
	if r.opt.smoke {
		reps = 1
	}
	vals, err := runLayerDrivers(r, tr, reps)
	if err != nil {
		return nil, err
	}
	if len(traced.compaction) > 0 {
		// The workload compacted on its own cadence, and its reads sampled
		// what they faced between compactions.
		vals["acid.delta_dirs_at_read"] = median(tr.sampleValues("acid.read", "delta_dirs"))
		vals["acid.delete_set_rows"] = median(tr.sampleValues("acid.read", "delete_set_rows"))
	} else if _, err := compactAll(r, tr); err != nil {
		return nil, err
	}
	vals["acid.compact_bytes_rewritten"] = sum(tr.sampleValues("acid.compact", "bytes_rewritten"))
	layer := perLayerMetrics(tr, traced, base, counterDelta(after, before), vals)
	for _, m := range perLayer {
		rep.Metrics[m.name] = Metric{Value: layer[m.name], Unit: m.unit}
	}
	rep.Counts["statements"] = traced.attempted
	rep.TraceFile = r.opt.traceOut
	if rep.TraceFile == "" {
		rep.TraceFile = ".bench_build/trace_" + r.def.name + ".json"
	}
	return []*samples{base, traced}, tr.write(rep.TraceFile)
}

// storedBytes is the size of every file under the warehouse root.
func (r *run) storedBytes() (int64, error) {
	files, err := r.wh.Server().FS.ListRecursive(r.wh.Server().MS.Root())
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		n += f.Size
	}
	return n, nil
}

// print writes the report for people, appends it to the -out file, and ends
// with the one-line result the driver reads.
func (rep *Report) print(w io.Writer, out string) error {
	h := rep.Host
	fmt.Fprintf(w, "workload %s  scale=%s seed=%d seconds=%g traced=%v\n", rep.Workload, rep.Scale, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d go=%s commit=%s undersized_host=%v\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Undersized)
	fmt.Fprintf(w, "samples %s\n", countsLine(rep.Counts))
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", m.name, rep.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "  %-40s %16.6g ratio (%d failed of %d attempted)\n", "fail_ratio", rep.FailRatio, rep.Failed, rep.Attempted)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  failed: %s\n", e)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(w, "spans written to %s\n", rep.TraceFile)
	}
	if out != "" {
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		line, err := json.Marshal(rep)
		if err == nil {
			_, err = f.Write(append(line, '\n'))
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func countsLine(c map[string]int) string {
	var parts []string
	for _, k := range sortedKeys(c) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
	}
	return strings.Join(parts, " ")
}
