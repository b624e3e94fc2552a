package main

import (
	"errors"
	"time"

	"hotcalls/internal/core"
	"hotcalls/internal/dist"
)

// epoch anchors now(): every timestamp in a run is monotonic ns since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// failLatencyNS is the latency recorded for a failed op: a failure
// misses any latency limit, so once more than 1 % of ops fail it is the
// run's p99.
const failLatencyNS = 1 << 40

// sampleEvery is how many ops lane 0 completes between reads of the
// pool's responder gauges.
const sampleEvery = 64

// harvestEveryNS is how often lane 0 copies fresh flight records out of
// the tracing recorder's rings.
const harvestEveryNS = int64(2 * time.Millisecond)

// laneSlice is one time slice of one lane: checked ops, their payload
// bytes, and the latencies of all its ops.
type laneSlice struct {
	ops   uint64
	bytes uint64
	lat   *dist.Recorder
}

// lane is one driver goroutine's closed loop over one connection.  It
// runs until its deadline passes or its op budget is spent, whichever
// comes first.
type lane struct {
	conn     int
	start    int64
	deadline int64
	budget   uint64
	sliceNS  int64
	slices   []laneSlice

	n         uint64 // record calls
	attempted uint64
	failed    uint64
	timeouts  uint64
	end       int64

	tr *tracer // nil outside the traced phase

	// Lane-0 duties: responder-gauge sampling and flight harvesting.
	pool      *core.CallPool
	respSum   uint64
	sleepSum  uint64
	gaugeN    uint64
	harvest   *harvester
	harvestAt int64
	cpuMarks  []int64 // process CPU time at each slice boundary crossed
	marked    int     // last slice whose opening boundary is in cpuMarks

	// vpn-stream: relayed/requested per Stream, and the fewest free
	// slabs seen between Streams.
	fillSum  float64
	fillN    uint64
	ringMin  int
	ringSeen bool
}

func newLane(conn int, start, deadline int64, budget uint64, slices int) *lane {
	l := &lane{conn: conn, start: start, deadline: deadline, budget: budget, slices: make([]laneSlice, slices)}
	l.sliceNS = (deadline - start) / int64(slices)
	if l.sliceNS <= 0 {
		l.sliceNS = 1
	}
	for i := range l.slices {
		l.slices[i].lat = dist.NewRecorder(64)
	}
	return l
}

// record books one completed unit of work: ops operations that took
// t1-t0 ns from the driver's call to the checked return.  It reports
// whether the lane should stop issuing new work.
func (l *lane) record(t0, t1 int64, ops int, ok bool, bytes int, err error) bool {
	idx := int((t1 - l.start) / l.sliceNS)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.slices) {
		idx = len(l.slices) - 1
	}
	s := &l.slices[idx]
	l.attempted += uint64(ops)
	if ok {
		s.ops += uint64(ops)
		s.bytes += uint64(bytes)
		s.lat.Record(uint64(t1 - t0))
	} else {
		l.failed += uint64(ops)
		s.lat.Record(failLatencyNS)
	}
	if errors.Is(err, core.ErrTimeout) {
		l.timeouts++
	}
	l.n++
	l.end = t1
	for l.cpuMarks != nil && l.marked < idx {
		l.marked++
		l.cpuMarks[l.marked] = cpuNS()
	}
	if l.pool != nil && l.n%sampleEvery == 0 {
		l.respSum += uint64(l.pool.Responders())
		l.sleepSum += uint64(l.pool.SleepingResponders())
		l.gaugeN++
	}
	if l.harvest != nil && t1-l.harvestAt >= harvestEveryNS {
		l.harvest.collect()
		l.harvestAt = t1
	}
	return t1 >= l.deadline || (l.budget > 0 && l.attempted >= l.budget)
}

// noteRing records the free-slab count of the lane's payload ring.
func (l *lane) noteRing(free int) {
	if !l.ringSeen || free < l.ringMin {
		l.ringMin = free
		l.ringSeen = true
	}
}
