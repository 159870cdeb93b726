package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile interpolates linearly between closest ranks, the method of
// Python's statistics.quantiles(method="inclusive"). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartileSpread is (Q3−Q1)/median with the exclusive quartiles Python's
// statistics.quantiles(values, n=4) returns by default — the spread the
// driver computes over ten runs.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		lo = max(0, min(lo, n-2))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// resources is one reading of the process-wide counters the per-op cost
// metrics are deltas of.
type resources struct {
	cpu        time.Duration // user+system, getrusage
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	gcPause    time.Duration
}

func readResources() resources {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return resources{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		numGC:      m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
	}
}

func (r resources) since(start resources) resources {
	return resources{
		cpu:        r.cpu - start.cpu,
		mallocs:    r.mallocs - start.mallocs,
		allocBytes: r.allocBytes - start.allocBytes,
		numGC:      r.numGC - start.numGC,
		gcPause:    r.gcPause - start.gcPause,
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// Host records where a run was made; results from an undersized host (one
// CPU: the analytic workloads run at hive.parallelism=2 and serving with two
// clients) are marked so they are not compared with real ones.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Undersized bool   `json:"undersized_host"`
}

func hostRecord() Host {
	h := Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	h.Undersized = h.NumCPU < 2
	// `go build` stamps the revision into a binary built inside a git work
	// tree; `go run` does not, so the work tree the program runs in is asked
	// next. In a bare checkout (the driver's) the commit stays unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		if c := gitHead(".git"); c != "" {
			h.Commit = c
		}
	}
	return h
}

// gitHead resolves HEAD of the git directory dir by reading its files: the
// commit itself when detached, else the branch's loose or packed ref. It
// returns "" when dir is not a git directory.
func gitHead(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(data))
	ref, symbolic := strings.CutPrefix(head, "ref: ")
	if !symbolic {
		return head
	}
	if data, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if commit, ok := strings.CutSuffix(line, " "+ref); ok {
			return commit
		}
	}
	return ""
}
