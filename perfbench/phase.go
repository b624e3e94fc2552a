package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"

	"hotcalls/internal/dist"
)

// runLanes drives every connection of fx from its own goroutine until
// each lane stops, and returns the lanes.
func runLanes(fx *fixture, lanes []*lane) {
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			fx.drive(l)
		}(l)
	}
	wg.Wait()
}

// warmup runs budget ops per connection through fx and books them, so
// a failure during warm-up still counts against the run.
func warmup(fx *fixture) {
	lanes := make([]*lane, fx.conns)
	for c := range lanes {
		lanes[c] = newLane(c, now(), 1<<62, fx.warm, 1)
	}
	runLanes(fx, lanes)
	for _, l := range lanes {
		fx.attempted += l.attempted
		fx.failed += l.failed
	}
}

// phase is one timed, closed-loop measurement of a fixture, with the
// program's own counters read before and after it from outside.
type phase struct {
	lanes      []*lane
	start, end int64

	mallocs, allocBytes uint64
	polls, execs        uint64

	epcTouches, epcFaults, epcEvictions, epcWritebacks uint64
	epcResident                                        int
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func epcCounters(fx *fixture) (t, f, e, w uint64) {
	if fx.epc == nil {
		return
	}
	t, f, e = fx.epc.Stats()
	return t, f, e, fx.epc.Writebacks()
}

// measure runs fx for durNS cut into sliceNS slices, with tracers (nil
// when untraced) and a flight harvester (nil when untraced) on the
// lanes.
func measure(fx *fixture, durNS int64, trs []*tracer, h *harvester) *phase {
	slices := int(max(1, durNS/sliceNS))
	p := &phase{lanes: make([]*lane, fx.conns)}
	for c := range p.lanes {
		p.lanes[c] = newLane(c, 0, durNS, 0, slices)
		if trs != nil {
			p.lanes[c].tr = trs[c]
		}
	}
	l0 := p.lanes[0]
	l0.pool, l0.harvest = fx.pool, h
	l0.cpuMarks = make([]int64, slices+1)

	// Counters are read after the lanes exist, so the driver's own
	// allocations stay out of the per-op deltas.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	polls0, execs0 := fx.pool.Stats()
	t0, f0, e0, w0 := epcCounters(fx)
	l0.cpuMarks[0] = cpuNS()
	p.start = now()
	for _, l := range p.lanes {
		l.start, l.deadline = p.start, p.start+durNS
	}
	runLanes(fx, p.lanes)
	cpu1 := cpuNS()
	for l0.marked < slices {
		l0.marked++
		l0.cpuMarks[l0.marked] = cpu1
	}
	for _, l := range p.lanes {
		p.end = max(p.end, l.end)
	}
	if h != nil {
		h.collect()
	}
	// The phase outlives the instance; it must not keep the pool live.
	l0.pool, l0.harvest = nil, nil
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	polls1, execs1 := fx.pool.Stats()
	p.polls, p.execs = polls1-polls0, execs1-execs0
	t1, f1, e1, w1 := epcCounters(fx)
	p.epcTouches, p.epcFaults, p.epcEvictions, p.epcWritebacks = t1-t0, f1-f0, e1-e0, w1-w0
	if fx.epc != nil {
		p.epcResident = fx.epc.ResidentPages()
	}
	return p
}

// summary is a phase reduced to its end-to-end figures.  p50us and
// p99us are taken over every op of the phase, failures included.
// Throughput, goodput, CPU per op and p99SliceUS are computed per time
// slice and reported as the median slice, so a burst of host noise in a
// few slices does not move them, while anything the program does in
// more than half of the slices does.  lat holds every op's latency, so
// summaries can be combined.
type summary struct {
	ops, attempted, failed, timeouts uint64
	seconds                          float64
	throughput, goodputMBps          float64
	p50us, p99us, p99SliceUS         float64
	cpuUSPerOp                       float64
	samples                          uint64
	slices                           int
	lat                              dist.Snapshot
}

func (p *phase) summarize() summary {
	var s summary
	n := len(p.lanes[0].slices)
	sliceNS := p.lanes[0].sliceNS
	var thr, good, p99, cpu []float64
	var all dist.Snapshot
	for i := 0; i < n; i++ {
		var ops, bytes uint64
		var snap dist.Snapshot
		for _, l := range p.lanes {
			ops += l.slices[i].ops
			bytes += l.slices[i].bytes
			snap.Merge(l.slices[i].lat.Snapshot())
		}
		d := float64(sliceNS)
		if i == n-1 {
			d = float64(p.end - p.start - int64(n-1)*sliceNS)
		}
		thr = append(thr, float64(ops)/d*1e9)
		good = append(good, float64(bytes)/d*1e9/1e6)
		p99 = append(p99, quantile(snap, 0.99)/1e3)
		if ops > 0 {
			marks := p.lanes[0].cpuMarks
			cpu = append(cpu, float64(marks[i+1]-marks[i])/1e3/float64(ops))
		}
		all.Merge(snap)
		s.ops += ops
	}
	for _, l := range p.lanes {
		s.attempted += l.attempted
		s.failed += l.failed
		s.timeouts += l.timeouts
	}
	s.samples, s.slices, s.lat = all.Count(), n, all
	s.seconds = float64(p.end-p.start) / 1e9
	s.throughput, s.goodputMBps = median(thr), median(good)
	s.p50us, s.p99us = quantile(all, 0.50)/1e3, quantile(all, 0.99)/1e3
	s.p99SliceUS = median(p99)
	s.cpuUSPerOp = median(cpu)
	return s
}

// combine reduces the summaries of several phases, each on its own
// program instance, to one.  Counts add up and p99us is taken over
// every op; the other figures are the mean over the phases, so an
// instance that starts in a slow state moves the result by its share
// of the phases.
func combine(segs []summary) summary {
	var s summary
	k := float64(len(segs))
	for _, g := range segs {
		s.ops += g.ops
		s.attempted += g.attempted
		s.failed += g.failed
		s.timeouts += g.timeouts
		s.seconds += g.seconds
		s.samples += g.samples
		s.slices += g.slices
		s.lat.Merge(g.lat)
		s.throughput += g.throughput / k
		s.goodputMBps += g.goodputMBps / k
		s.p50us += g.p50us / k
		s.p99SliceUS += g.p99SliceUS / k
		s.cpuUSPerOp += g.cpuUSPerOp / k
	}
	s.p99us = quantile(s.lat, 0.99) / 1e3
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the q-th quantile of s, interpolated linearly by rank
// inside the bucket that holds it.  dist.Snapshot.Quantile reports the
// bucket midpoint, which repeats to the last digit from run to run; the
// interpolated value keeps the measurement's own variation.
func quantile(s dist.Snapshot, q float64) float64 {
	if s.Total == 0 {
		return 0
	}
	rank := q * float64(s.Total-1)
	var seen float64
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		if seen+float64(n) > rank {
			lo, hi := float64(dist.BucketLow(i)), float64(dist.BucketHigh(i)+1)
			if hi-lo == 1 {
				return lo // an exact bucket: every value in it is lo
			}
			return lo + (hi-lo)*(rank-seen+0.5)/float64(n)
		}
		seen += float64(n)
	}
	return 0
}
