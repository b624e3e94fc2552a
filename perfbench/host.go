package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint records the host and the samples behind a result, so two
// results can be told apart and compared only when they should be.
type fingerprint struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Source     string  `json:"source"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`

	// GCHeapBudget is the heap size that triggers a collection (GOGC
	// is off); GCCycles counts the collections of the whole process.
	GCHeapBudget int64  `json:"gc_heap_budget_bytes"`
	GCCycles     uint32 `json:"gc_cycles"`

	// Ops is the number of ops attempted in the timed phases.  Samples
	// is the latency sample count behind the percentiles, which are
	// taken over the whole phase; a vpn-stream sample is one 16-frame
	// window.  Slices is the number of time slices behind the median
	// slice figures (throughput, goodput, CPU per op), and Segments the
	// number of program instances measured in turn.
	Ops      uint64 `json:"ops"`
	Samples  uint64 `json:"latency_samples"`
	Slices   int    `json:"slices"`
	Segments int    `json:"segments,omitempty"`
	Timeouts uint64 `json:"timeouts"`

	SetupReps     int       `json:"setup_reps,omitempty"`
	SetupSeconds  []float64 `json:"setup_seconds,omitempty"`
	FlightRecords uint64    `json:"flight_records,omitempty"`
	GenNSTotal    int64     `json:"input_gen_ns"`
}

func (f *fingerprint) fill(workload string, seed int64, seconds float64, traced bool, source string) {
	f.Workload, f.Seed, f.Seconds, f.Traced, f.Source = workload, seed, seconds, traced, source
	f.GoVersion, f.GOOS, f.GOARCH = runtime.Version(), runtime.GOOS, runtime.GOARCH
	f.GOMAXPROCS, f.NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
	f.CPUModel = cpuModel()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	f.GCHeapBudget, f.GCCycles = debug.SetMemoryLimit(-1), ms.NumGC
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
