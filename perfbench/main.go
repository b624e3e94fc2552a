// Command perfbench is the repository's end-to-end benchmark of the
// HotCalls fabric and its three ported apps.  It drives one workload
// closed-loop through the program's public API, checks every reply, and
// prints its metrics; the last line of standard output is one JSON
// object.  See README.md for the workloads, the metrics and what each
// per-layer metric should move.
//
//	perfbench --workload kv-window --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"hotcalls/internal/dist"
	"hotcalls/internal/telemetry"
)

// An untraced run sets the workload up at least setupMinReps times and
// until set-ups have taken setupMinNS in all, so that their median does
// not rest on one second of the host, and reports the median.  The last
// measureSegments set-ups are measured, each for an equal share of the
// run: a program instance keeps the state it starts in (call-bare's
// requester and responder ran at a p50 of 0.72-0.78 us in most 2 s
// segments and 0.95-1.02 us in about one in five, each instance in one
// of them throughout), so the run samples several instances rather than
// resting on one.
const (
	setupMinReps    = 15
	setupMinNS      = int64(3 * time.Second)
	measureSegments = 10
)

// sliceNS is the length of the time slices a timed phase is cut into
// for the median-slice figures: long enough that a slice holds
// thousands of ops, short enough that a run has over a hundred slices.
const sliceNS = int64(250 * time.Millisecond)

// gcHeapBudget is the heap size at which the collector runs.  At the
// default GOGC a workload with a small live heap is collected hundreds
// of times a second (vpn-stream: 1.7 MB live, about 1 GB/s allocated),
// and every stop-the-world then waits for any thread the host has
// preempted: with a busy loop holding half of one of 2 vCPUs,
// vpn-stream lost about half its throughput at the default GOGC and
// 14-26 % with this budget.  A fixed budget keeps a collection's cost
// and frequency a property of what the program allocates, which the
// per-layer allocs_per_op and alloc_bytes_per_op report.
const gcHeapBudget = 128 << 20

// spanLogCap bounds the spans one lane keeps for the span file.
const spanLogCap = 1 << 14

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: call-bare, kv-window, vpn-stream or web-epc")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "timed seconds (split between the untraced and traced phases when tracing)")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span file and the result record")
	source := flag.String("source", "unknown", "source revision recorded in the fingerprint")
	flag.Parse()
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcHeapBudget)
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}

	g0 := now()
	w := mk(*seed)
	genNS := now() - g0

	var res result
	var fp fingerprint
	if *trace == 0 {
		res, fp = runUntraced(w, *seconds)
	} else {
		var err error
		res, fp, err = runTraced(w, *name, *seed, *seconds, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	fp.fill(*name, *seed, *seconds, *trace == 1, *source)
	fp.GenNSTotal = genNS
	res.Correct = res.Failed == 0

	printMetrics(res.Metrics)
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpJSON)
	record := map[string]any{"fingerprint": fp, "result": res}
	if err := writeJSON(filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)), record); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	last, _ := json.Marshal(res)
	fmt.Println(string(last))
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp builds one instance, warms it up, and returns it with its
// set-up time in seconds.
func setUp(w workload, traced bool, tr *tracer) (*fixture, float64) {
	sc := newSetupClock(tr)
	fx := w.setup(traced, sc)
	warmup(fx)
	sc.step(spWarmup)
	return fx, sc.finish()
}

// runUntraced is the end-to-end run: set up repeatedly, measure the
// last measureSegments instances in turn, and combine their figures.
func runUntraced(w workload, seconds float64) (result, fingerprint) {
	var setups []float64
	var att, fail uint64
	setUpOne := func() *fixture {
		fx, s := setUp(w, false, nil)
		setups = append(setups, s)
		att, fail = att+fx.attempted, fail+fx.failed
		return fx
	}
	for t0 := now(); len(setups) < setupMinReps-measureSegments || now()-t0 < setupMinNS; {
		setUpOne().stop()
	}
	segs := make([]summary, measureSegments)
	var fx *fixture
	for i := range segs {
		if fx != nil {
			fx.stop()
		}
		fx = setUpOne()
		segs[i] = measure(fx, int64(seconds*1e9)/measureSegments, nil, nil).summarize()
	}
	// The program's live heap is what releasing the last instance frees.
	runtime.GC()
	live := float64(heapAlloc())
	fx.stop()
	runtime.GC()
	live -= float64(heapAlloc())
	s := combine(segs)

	res := result{Attempted: att + s.attempted, Failed: fail + s.failed, Metrics: map[string]metric{
		"throughput_ops_s":     {s.throughput, "1/s"},
		"goodput_MBps":         {s.goodputMBps, "MB/s"},
		"latency_p50_us":       {s.p50us, "us"},
		"latency_p99_slice_us": {s.p99SliceUS, "us"},
		"cpu_us_per_op":        {s.cpuUSPerOp, "us"},
		"heap_live_MB":         {live / 1e6, "MB"},
		"setup_s":              {median(setups), "s"},
	}}
	errRate := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("%-26s %14.6g %s\n", "error_rate", errRate, "ratio")
	fmt.Printf("%-26s %14.6g %s\n", "latency_p99_us", s.p99us, "us")
	fp := fingerprint{Ops: s.attempted, Samples: s.samples, Slices: s.slices, Segments: len(segs), SetupReps: len(setups), SetupSeconds: setups, Timeouts: s.timeouts}
	return res, fp
}

// runTraced is the per-layer run: an untraced phase in the shipped
// configuration, then a traced phase on a fresh instance with spans
// around every public call, a telemetry registry and an every-call
// flight recorder.  Each gets half the run.
func runTraced(w workload, name string, seed int64, seconds float64, out string) (result, fingerprint, error) {
	half := int64(seconds * 1e9 / 2)

	fxA, _ := setUp(w, false, nil)
	monEvents := 0
	var fl0, fs0 uint64
	if fxA.shipped != nil {
		fxA.shipped.Digest()
		fl0, fs0 = fxA.shipped.Dropped(), fxA.shipped.Digested()
	}
	pa := measure(fxA, half, nil, nil)
	var flDropped, flSampled uint64
	if fxA.shipped != nil {
		fxA.shipped.Digest()
		flDropped = fxA.shipped.Dropped() - fl0
		flSampled = flDropped + fxA.shipped.Digested() - fs0
	}
	if fxA.mon != nil {
		fxA.mon.Stop()
		monEvents = len(fxA.mon.Events())
	}
	fxA.stop()
	a := pa.summarize()

	setupTr := newTracer(-1, 64)
	fxB, _ := setUp(w, true, setupTr)
	trs := make([]*tracer, fxB.conns)
	for c := range trs {
		trs[c] = newTracer(c, spanLogCap)
	}
	h := newHarvester(fxB.tracing)
	sleeps := fxB.reg.Counter(telemetry.MetricResponderSleeps)
	ups := fxB.reg.Counter(telemetry.MetricPoolScaleUps)
	downs := fxB.reg.Counter(telemetry.MetricPoolScaleDowns)
	sl0, su0, sd0 := sleeps.Load(), ups.Load(), downs.Load()
	pb := measure(fxB, half, trs, h)
	sl1, su1, sd1 := sleeps.Load(), ups.Load(), downs.Load()
	fxB.stop()
	b := pb.summarize()

	all := append([]*tracer{setupTr}, trs...)
	stats := spanStats(all)
	if err := writeSpans(filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed)), all, stats); err != nil {
		return result{}, fingerprint{}, err
	}
	printSpans(stats)

	perOp := func(v uint64, ops uint64) float64 { return float64(v) / float64(max(ops, 1)) }
	durQ := func(kind int, q float64) float64 {
		var s dist.Snapshot
		for _, t := range trs {
			s.Merge(t.dur[kind].Snapshot())
		}
		return quantile(s, q)
	}
	var driverNS float64
	for _, st := range stats {
		if st.Name == spanNames[spDriver] {
			driverNS = st.SelfMean * float64(st.Count)
		}
	}
	var respSum, sleepSum, gaugeN uint64
	var fill float64
	var fillN uint64
	ringMin, ringSeen := 0, false
	for _, l := range pa.lanes {
		respSum += l.respSum
		sleepSum += l.sleepSum
		gaugeN += l.gaugeN
		fill += l.fillSum
		fillN += l.fillN
		if l.ringSeen && (!ringSeen || l.ringMin < ringMin) {
			ringMin, ringSeen = l.ringMin, true
		}
	}
	overhead := 0.0
	if a.throughput > 0 {
		overhead = b.throughput / a.throughput
	}
	m := map[string]metric{
		"apps.submit_ns_p50":       {durQ(spSubmit, 0.50), "ns"},
		"apps.submit_ns_p99":       {durQ(spSubmit, 0.99), "ns"},
		"apps.wait_ns_p50":         {durQ(spWait, 0.50), "ns"},
		"apps.wait_ns_p99":         {durQ(spWait, 0.99), "ns"},
		"apps.allocs_per_op":       {perOp(pa.mallocs, a.ops), "count"},
		"apps.alloc_bytes_per_op":  {perOp(pa.allocBytes, a.ops), "B"},
		"apps.window_fill":         {fill / float64(max(fillN, 1)), "ratio"},
		"core.polls_per_exec":      {perOp(pa.polls, pa.execs), "ratio"},
		"core.responders_mean":     {perOp(respSum, gaugeN), "count"},
		"core.sleepers_mean":       {perOp(sleepSum, gaugeN), "count"},
		"core.timeouts":            {float64(a.timeouts), "count"},
		"core.sleeps_per_kop":      {perOp(sl1-sl0, b.ops) * 1e3, "count"},
		"core.scale_events":        {float64(su1 - su0 + sd1 - sd0), "count"},
		"core.queue_wait_ns_p50":   {quantile(h.queue.Snapshot(), 0.50), "ns"},
		"core.queue_wait_ns_p99":   {quantile(h.queue.Snapshot(), 0.99), "ns"},
		"core.dispatch_ns_p50":     {quantile(h.dispatch.Snapshot(), 0.50), "ns"},
		"core.return_ns_p50":       {quantile(h.ret.Snapshot(), 0.50), "ns"},
		"core.ring_free_slabs_min": {float64(ringMin), "count"},
		"handler.exec_ns_p50":      {quantile(h.exec.Snapshot(), 0.50), "ns"},
		"handler.exec_ns_p99":      {quantile(h.exec.Snapshot(), 0.99), "ns"},
		"epc.touches_per_op":       {perOp(pa.epcTouches, a.ops), "count"},
		"epc.faults_per_op":        {perOp(pa.epcFaults, a.ops), "count"},
		"epc.evictions_per_op":     {perOp(pa.epcEvictions, a.ops), "count"},
		"epc.writebacks_per_op":    {perOp(pa.epcWritebacks, a.ops), "count"},
		"epc.resident_pages":       {float64(pa.epcResident), "count"},
		"flight.dropped":           {float64(flDropped), "count"},
		"flight.sampled_per_kop":   {perOp(flSampled, a.ops) * 1e3, "count"},
		"monitor.events":           {float64(monEvents), "count"},
		"driver.gen_ns_per_op":     {driverNS / float64(max(b.ops, 1)), "ns"},
		"trace.overhead_ratio":     {overhead, "ratio"},
		"e2e.latency_p99_us":       {a.p99us, "us"},
	}
	fmt.Printf("%-26s %14.6g %s\n", "untraced latency_p50_us", a.p50us, "us")
	fmt.Printf("%-26s %14.6g %s\n", "traced flight records", float64(h.exec.Count()), "count")
	res := result{
		Attempted: fxA.attempted + fxB.attempted + a.attempted + b.attempted,
		Failed:    fxA.failed + fxB.failed + a.failed + b.failed,
		Metrics:   m,
	}
	fp := fingerprint{Ops: a.attempted + b.attempted, Samples: a.samples + b.samples,
		Slices:        len(pa.lanes[0].slices),
		FlightRecords: h.exec.Count(), Timeouts: a.timeouts + b.timeouts}
	return res, fp, nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-26s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printSpans(stats []spanStat) {
	fmt.Printf("%-10s %10s %12s %12s %12s\n", "span", "count", "dur_p50_ns", "self_p50_ns", "self_p99_ns")
	for _, s := range stats {
		fmt.Printf("%-10s %10d %12.0f %12.0f %12.0f\n", s.Name, s.Count, s.DurP50NS, s.SelfP50NS, s.SelfP99NS)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
