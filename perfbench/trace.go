package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"

	"hotcalls/internal/dist"
	"hotcalls/internal/flight"
)

// Span kinds.  Each names a public call the driver makes, a set-up step,
// or the driver's own work per op.
const (
	spOp        = iota // one op: from the driver's call to its checked return
	spCallAt           // core.Requester.CallAt
	spSubmit           // PoolConn.Submit
	spWait             // PendingResponse.Wait
	spDo               // lighttpd PoolConn.Do (Submit then Wait)
	spStream           // openvpn PoolConn.Stream
	spDriver           // the driver's own work: input pick and reply check
	spSetup            // one whole set-up
	spConstruct        // NewPoolServer / NewCallPool
	spObserve          // observer attach
	spStart            // Start
	spPreload          // data preload through the program
	spWarmup           // warm-up ops before the first timed op
	numSpans
)

var spanNames = [numSpans]string{
	"op", "CallAt", "Submit", "Wait", "Do", "Stream", "driver",
	"setup", "construct", "observe", "start", "preload", "warmup",
}

// spanRec is one finished span as written out at the end of the run.
type spanRec struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// openSpan is a span that has begun and not ended.
type openSpan struct {
	id, parent, op int64
	kind           int
	parentSlot     int
	start, child   int64
}

// maxOpen bounds the spans open at once in one tracer: a 16-deep
// window's op roots plus one child each, with headroom.
const maxOpen = 64

// tracer keeps one goroutine's spans in memory.  Self time (duration
// minus the time covered by child spans) is folded into a per-kind HDR
// recorder as each span ends; finished spans are kept up to the log's
// capacity and counted as dropped beyond it.
type tracer struct {
	idBase  int64
	nextID  int64
	nextOp  int64
	open    [maxOpen]openSpan
	free    []int
	log     []spanRec
	dropped uint64
	self    [numSpans]*dist.Recorder
	dur     [numSpans]*dist.Recorder
}

func newTracer(lane int, logCap int) *tracer {
	t := &tracer{idBase: int64(lane+1) << 40, log: make([]spanRec, 0, logCap), free: make([]int, 0, maxOpen)}
	for i := maxOpen - 1; i >= 0; i-- {
		t.free = append(t.free, i)
	}
	for k := range t.self {
		t.self[k] = dist.NewRecorder(64)
		t.dur[k] = dist.NewRecorder(64)
	}
	return t
}

// newOp returns a fresh op ID: every span of one op carries it.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.nextOp++
	return t.idBase | t.nextOp
}

// begin opens a span of the given kind under parent (-1 for a root) and
// returns its slot.  A nil tracer returns -1 and records nothing.
func (t *tracer) begin(kind int, op int64, parent int, start int64) int {
	if t == nil {
		return -1
	}
	if len(t.free) == 0 {
		panic("perfbench: too many open spans")
	}
	slot := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.nextID++
	s := &t.open[slot]
	*s = openSpan{id: t.idBase | t.nextID, op: op, kind: kind, parentSlot: parent, start: start}
	if parent >= 0 {
		s.parent = t.open[parent].id
	}
	return slot
}

// end closes the span in slot at time end.
func (t *tracer) end(slot int, end int64) {
	if t == nil || slot < 0 {
		return
	}
	s := &t.open[slot]
	d := end - s.start
	self := d - s.child
	if s.parentSlot >= 0 {
		t.open[s.parentSlot].child += d
	}
	t.self[s.kind].Record(uint64(max(self, 0)))
	t.dur[s.kind].Record(uint64(max(d, 0)))
	if len(t.log) < cap(t.log) {
		t.log = append(t.log, spanRec{ID: s.id, Parent: s.parent, Op: s.op, Name: spanNames[s.kind],
			StartNS: s.start, EndNS: end, SelfNS: self})
	} else {
		t.dropped++
	}
	t.free = append(t.free, slot)
}

// spanStat is the per-kind summary of a traced phase.
type spanStat struct {
	Name      string  `json:"name"`
	Count     uint64  `json:"count"`
	DurP50NS  float64 `json:"dur_p50_ns"`
	SelfP50NS float64 `json:"self_p50_ns"`
	SelfP99NS float64 `json:"self_p99_ns"`
	SelfMean  float64 `json:"self_mean_ns"`
}

// spanStats merges the tracers' per-kind recorders.
func spanStats(trs []*tracer) []spanStat {
	var out []spanStat
	for k := 0; k < numSpans; k++ {
		var self, dur dist.Snapshot
		for _, t := range trs {
			self.Merge(t.self[k].Snapshot())
			dur.Merge(t.dur[k].Snapshot())
		}
		if self.Count() == 0 {
			continue
		}
		out = append(out, spanStat{Name: spanNames[k], Count: self.Count(), DurP50NS: quantile(dur, 0.5),
			SelfP50NS: quantile(self, 0.5), SelfP99NS: quantile(self, 0.99), SelfMean: self.Mean()})
	}
	return out
}

// writeSpans writes every kept span as one JSON object per line, then
// the per-kind summary, to path.
func writeSpans(path string, trs []*tracer, stats []spanStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var dropped uint64
	for _, t := range trs {
		dropped += t.dropped
		for i := range t.log {
			if err := enc.Encode(&t.log[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := enc.Encode(map[string]any{"summary": stats, "dropped_spans": dropped}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// harvester copies closed records out of the tracing flight recorder's
// rings and splits each call's latency into queue wait (submit→claim),
// dispatch (claim→exec start), handler exec and return (exec end→the
// requester seeing the result).  Records are read, never digested, so
// the recorder's own state is untouched.
type harvester struct {
	rec      *flight.Recorder
	last     map[int]uint64 // per-shard newest SubmitNS already folded
	queue    *dist.Recorder
	dispatch *dist.Recorder
	exec     *dist.Recorder
	ret      *dist.Recorder
}

func newHarvester(rec *flight.Recorder) *harvester {
	return &harvester{rec: rec, last: map[int]uint64{},
		queue: dist.NewRecorder(64), dispatch: dist.NewRecorder(64),
		exec: dist.NewRecorder(64), ret: dist.NewRecorder(64)}
}

// harvestMax covers every record the recorder's rings can hold.
const harvestMax = 1 << 16

func (h *harvester) collect() {
	newest := map[int]uint64{}
	for _, v := range h.rec.Records(harvestMax) {
		if v.SubmitNS <= h.last[v.Shard] {
			continue
		}
		if v.SubmitNS > newest[v.Shard] {
			newest[v.Shard] = v.SubmitNS
		}
		if v.TimedOut || v.Stopped || v.ClaimNS < v.SubmitNS || v.ExecStartNS < v.ClaimNS ||
			v.ExecEndNS < v.ExecStartNS || v.ReturnNS < v.ExecEndNS {
			continue
		}
		h.queue.Record(v.ClaimNS - v.SubmitNS)
		h.dispatch.Record(v.ExecStartNS - v.ClaimNS)
		h.exec.Record(v.ExecEndNS - v.ExecStartNS)
		h.ret.Record(v.ReturnNS - v.ExecEndNS)
	}
	for sh, ns := range newest {
		h.last[sh] = ns
	}
}
