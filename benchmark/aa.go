package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readReports groups the untraced reports of an -out file by workload, and
// each workload's values by metric.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rep Report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Traced {
			continue
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, how much worse the new one is, the bound, and a verdict. A
// metric whose own run-to-run spread (interquartile range over median, on
// either side) exceeds its bound is unresolved: the runs cannot tell a
// regression of that size from noise. It reports whether any row is worse.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	old, err := readReports(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readReports(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\truns\tworse by\tspread\tbound\tverdict\t")
	anyWorse := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := old[wl.Name][m.Name], cur[wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t%d/%d\t-\t-\t%.3f\tmissing\t\n", wl.Name, m.Name, m.Unit, len(a), len(b), m.Bound)
				continue
			}
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = ratio(ma-mb, ma)
			}
			spread := max(quartileSpread(a), quartileSpread(b))
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%d/%d\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\t\n",
				wl.Name, m.Name, m.Unit, ma, mb, len(a), len(b), 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	return anyWorse, tw.Flush()
}
