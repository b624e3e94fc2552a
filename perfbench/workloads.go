package main

import (
	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/core"
	"hotcalls/internal/epc"
	"hotcalls/internal/flight"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// A workload builds one running program instance over its pre-generated
// inputs.  setup constructs the server, attaches observers, starts it and
// preloads its data, marking each step on sc; the caller then warms it
// up through fixture.drive.
type workload interface {
	setup(traced bool, sc *setupClock) *fixture
}

// workloads maps each workload name to the constructor that generates
// its inputs from the seed.
var workloads = map[string]func(seed int64) workload{
	"call-bare":  func(seed int64) workload { return &callBare{data: genCall(seed)} },
	"kv-window":  func(seed int64) workload { return &kvWindow{in: genKV(seed, 2)} },
	"vpn-stream": func(seed int64) workload { return &vpnStream{in: genVPN(seed, 2)} },
	"web-epc":    func(seed int64) workload { return &webEPC{in: genWeb(seed, 2)} },
}

// fixture is one running program instance and the handles the driver
// reads from outside.
type fixture struct {
	conns int
	warm  uint64 // warm-up ops per connection
	pool  *core.CallPool
	epc   *epc.Manager
	reg   *telemetry.Registry // attached registry (traced phase; web-epc always)
	mon   *monitor.Monitor    // shipped monitor (web-epc)

	// shipped is the shipped observability stack's flight recorder
	// (web-epc's 1-in-256 sampler); tracing is the traced phase's
	// every-call recorder.  At most one is attached.
	shipped *flight.Recorder
	tracing *flight.Recorder

	// Set-up ops the workload checked itself (kv-window's preload).
	attempted, failed uint64

	drive func(l *lane)
	stop  func()
}

// observe attaches the traced phase's observers: a telemetry registry
// and a flight recorder that samples every call.
func (fx *fixture) observe(setTel func(*telemetry.Registry), setFlight func(*flight.Recorder)) {
	fx.reg = telemetry.New()
	setTel(fx.reg)
	fx.tracing = flight.New(flight.Options{SampleEvery: 1})
	setFlight(fx.tracing)
}

// setupClock marks set-up steps as child spans of one set-up span.
type setupClock struct {
	tr          *tracer
	op          int64
	root        int
	start, last int64
}

func newSetupClock(tr *tracer) *setupClock {
	t := now()
	op := tr.newOp()
	return &setupClock{tr: tr, op: op, root: tr.begin(spSetup, op, -1, t), start: t, last: t}
}

// step closes the set-up step that ran since the previous mark.
func (c *setupClock) step(kind int) {
	t := now()
	c.tr.end(c.tr.begin(kind, c.op, c.root, c.last), t)
	c.last = t
}

// finish closes the set-up span and returns its length in seconds.
func (c *setupClock) finish() float64 {
	t := now()
	c.tr.end(c.root, t)
	return float64(t-c.start) / 1e9
}

// callBare: one requester, synchronous CallAt, handler returns data+1.
type callBare struct{ data []uint64 }

func (w *callBare) setup(traced bool, sc *setupClock) *fixture {
	pool := core.NewCallPool([]core.PoolFunc{func(_ int, d uint64) uint64 { return d + 1 }}, core.PoolOptions{})
	sc.step(spConstruct)
	fx := &fixture{conns: 1, warm: 20000, pool: pool, stop: pool.Stop}
	var site flight.Callsite
	if traced {
		fx.observe(pool.SetTelemetry, pool.SetFlight)
		site = fx.tracing.Callsite("bench.call")
	}
	sc.step(spObserve)
	pool.Start()
	req := pool.Requester()
	sc.step(spStart)
	fx.drive = func(l *lane) {
		tr := l.tr
		for i := 0; ; i++ {
			d := w.data[i&(callWords-1)]
			op := tr.newOp()
			t0 := now()
			root := tr.begin(spOp, op, -1, t0)
			cs := tr.begin(spCallAt, op, root, t0)
			ret, err := req.CallAt(site, 0, d)
			t1 := traceNow(tr)
			tr.end(cs, t1)
			dv := tr.begin(spDriver, op, root, t1)
			ok := checkCall(d, ret, err)
			t2 := now()
			tr.end(dv, t2)
			tr.end(root, t2)
			if l.record(t0, t2, 1, ok, 8, err) {
				return
			}
		}
	}
	return fx
}

// traceNow reads the clock only when spans are being recorded.
func traceNow(tr *tracer) int64 {
	if tr == nil {
		return 0
	}
	return now()
}

// kvWindow: memcached, 2 connections, 16-deep Submit/Wait windows.
type kvWindow struct{ in *kvInputs }

// kvEPCPages is the EPC capacity: twice the key count, and every key's
// 2 KB value maps to one modeled page, so after preload the EPC only
// records touches.
const kvEPCPages = 2 * kvKeys

func (w *kvWindow) setup(traced bool, sc *setupClock) *fixture {
	s := memcached.NewPoolServer(2, core.PoolOptions{})
	sc.step(spConstruct)
	fx := &fixture{conns: 2, warm: kvOpsPerCon / 2, pool: s.Pool(), stop: s.Stop}
	if traced {
		fx.observe(s.SetTelemetry, s.SetFlight)
	}
	s.EnableEPC(kvEPCPages * epc.PageSize)
	fx.epc = s.EPCManager()
	sc.step(spObserve)
	s.Start()
	sc.step(spStart)
	pre := newLane(0, now(), 1<<62, kvKeys, 1)
	kvLoop(s.Conn(0), w.in.preload, pre)
	fx.attempted, fx.failed = pre.attempted, pre.failed
	sc.step(spPreload)
	fx.drive = func(l *lane) { kvLoop(s.Conn(l.conn), w.in.ops[l.conn], l) }
	return fx
}

// kvInflight is one submitted, not yet reaped request.
type kvInflight struct {
	pr   memcached.PendingResponse
	req  *memcached.Request
	t0   int64
	op   int64
	root int
}

// kvLoop keeps a full window of requests in flight on c, reaping the
// oldest before each new submit, and drains the window once the lane
// says stop.
func kvLoop(c *memcached.PoolConn, ops []memcached.Request, l *lane) {
	const window = 16 // memcached's per-connection window
	var win [window]kvInflight
	tr := l.tr
	head, n, i := 0, 0, 0
	stop := false
	for !stop || n > 0 {
		if n == window || stop {
			f := &win[head]
			t1 := traceNow(tr)
			ws := tr.begin(spWait, f.op, f.root, t1)
			resp, err := f.pr.Wait()
			t1 = traceNow(tr)
			tr.end(ws, t1)
			dv := tr.begin(spDriver, f.op, f.root, t1)
			ok := checkKV(f.req, resp, err)
			t2 := now()
			tr.end(dv, t2)
			tr.end(f.root, t2)
			bytes := len(f.req.Value)
			if ok && f.req.Op == memcached.OpGet {
				bytes = len(resp.Value)
			}
			stop = l.record(f.t0, t2, 1, ok, bytes, err) || stop
			head = (head + 1) % window
			n--
			continue
		}
		req := &ops[i%len(ops)]
		i++
		op := tr.newOp()
		t0 := now()
		root := tr.begin(spOp, op, -1, t0)
		ss := tr.begin(spSubmit, op, root, t0)
		pr, err := c.Submit(req)
		tr.end(ss, traceNow(tr))
		if err != nil {
			t := now()
			tr.end(root, t)
			stop = l.record(t0, t, 1, false, 0, err)
			continue
		}
		win[(head+n)%window] = kvInflight{pr: pr, req: req, t0: t0, op: op, root: root}
		n++
	}
}

// vpnStream: openvpn, 2 connections, full 16-datagram Stream windows.
type vpnStream struct{ in [][][][]byte }

// vpnWindowBytes is the plaintext of one window: alternating sizes.
const vpnWindowBytes = vpnFrames / 2 * (vpnSmall + vpnLarge)

func (w *vpnStream) setup(traced bool, sc *setupClock) *fixture {
	s := openvpn.NewPoolServer(2, core.PoolOptions{})
	sc.step(spConstruct)
	fx := &fixture{conns: 2, warm: 256 * vpnFrames, pool: s.Pool(), stop: s.Stop}
	if traced {
		fx.observe(s.SetTelemetry, s.SetFlight)
	}
	// The tunnel handler touches one modeled page per slab it relays;
	// four pages per slab holds every ring with room to spare.
	slabs := 0
	for c := 0; c < fx.conns; c++ {
		slabs += s.Pool().Ring(c).Slabs()
	}
	s.EnableEPC(4 * slabs * epc.PageSize)
	fx.epc = s.EPCManager()
	sc.step(spObserve)
	s.Start()
	sc.step(spStart)
	fx.drive = func(l *lane) {
		c := s.Conn(l.conn)
		ring := s.Pool().Ring(l.conn)
		wins := w.in[l.conn]
		tr := l.tr
		for i := 0; ; i++ {
			win := wins[i%len(wins)]
			op := tr.newOp()
			t0 := now()
			root := tr.begin(spOp, op, -1, t0)
			st := tr.begin(spStream, op, root, t0)
			n, err := c.Stream(win)
			t1 := traceNow(tr)
			tr.end(st, t1)
			dv := tr.begin(spDriver, op, root, t1)
			ok := checkVPN(n, err)
			l.fillSum += float64(n) / vpnFrames
			l.fillN++
			l.noteRing(ring.FreeSlabs())
			t2 := now()
			tr.end(dv, t2)
			tr.end(root, t2)
			if l.record(t0, t2, vpnFrames, ok, vpnWindowBytes, err) {
				return
			}
		}
	}
	return fx
}

// webEPC: lighttpd, 2 connections, synchronous GETs over a docroot
// several times the EPC, with the shipped observability stack.
type webEPC struct{ in *webInputs }

// webEPCPages is the EPC capacity; the docroot spans about 1,600 pages.
const webEPCPages = 256

func (w *webEPC) setup(traced bool, sc *setupClock) *fixture {
	s := lighttpd.NewPoolServer(2, core.PoolOptions{})
	sc.step(spConstruct)
	for i, p := range w.in.paths {
		s.AddDocument(p, w.in.bodies[i])
	}
	sc.step(spPreload)
	fx := &fixture{conns: 2, warm: 2048, pool: s.Pool()}
	if traced {
		fx.observe(s.SetTelemetry, s.SetFlight)
	} else {
		fx.reg = telemetry.New()
		s.SetTelemetry(fx.reg)
		fx.shipped = flight.New(flight.Options{})
		s.SetFlight(fx.shipped)
	}
	s.EnableEPC(webEPCPages * epc.PageSize)
	fx.epc = s.EPCManager()
	fx.mon = s.EnableMonitor(monitor.Options{})
	fx.mon.Start()
	sc.step(spObserve)
	s.Start()
	sc.step(spStart)
	fx.stop = func() {
		fx.mon.Stop()
		s.Stop()
	}
	fx.drive = func(l *lane) {
		c := s.Conn(l.conn)
		reqs := w.in.reqs[l.conn]
		tr := l.tr
		for i := 0; ; i++ {
			doc := reqs[i%len(reqs)]
			op := tr.newOp()
			t0 := now()
			root := tr.begin(spOp, op, -1, t0)
			var resp []byte
			var err error
			t1 := t0
			if tr == nil {
				resp, err = c.Do(w.in.raws[doc])
			} else {
				// Do is Submit followed by Wait; the traced phase makes
				// the two calls itself so their spans split Do.
				ds := tr.begin(spDo, op, root, t0)
				ss := tr.begin(spSubmit, op, ds, t0)
				pr, serr := c.Submit(w.in.raws[doc])
				t1 = now()
				tr.end(ss, t1)
				err = serr
				if serr == nil {
					ws := tr.begin(spWait, op, ds, t1)
					resp, err = pr.Wait()
					t1 = now()
					tr.end(ws, t1)
				}
				tr.end(ds, t1)
			}
			dv := tr.begin(spDriver, op, root, t1)
			body := w.in.bodies[doc]
			ok := checkWeb(body, resp, err)
			t2 := now()
			tr.end(dv, t2)
			tr.end(root, t2)
			if l.record(t0, t2, 1, ok, len(body), err) {
				return
			}
		}
	}
	return fx
}
