package main

import (
	"fmt"
	"reflect"
	"testing"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/core"
	"hotcalls/internal/dist"
)

// bookOne runs one reply through a lane the way the timed loops do and
// returns the lane.
func bookOne(ok bool, err error) *lane {
	l := newLane(0, 0, 1<<62, 0, 1)
	l.record(0, 1000, 1, ok, 8, err)
	return l
}

func assertFailed(t *testing.T, what string, ok bool, err error) {
	t.Helper()
	if ok {
		t.Errorf("%s: checker accepted a wrong reply", what)
	}
	if l := bookOne(ok, err); l.failed != 1 || l.slices[0].ops != 0 {
		t.Errorf("%s: booked failed=%d ok-ops=%d, want 1 and 0", what, l.failed, l.slices[0].ops)
	}
}

func TestCallCheckCountsWrongReply(t *testing.T) {
	if !checkCall(41, 42, nil) {
		t.Fatal("checkCall rejected data+1")
	}
	assertFailed(t, "wrong word", checkCall(41, 41, nil), nil)
	assertFailed(t, "timeout", checkCall(41, 42, core.ErrTimeout), core.ErrTimeout)
	if l := bookOne(false, core.ErrTimeout); l.timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", l.timeouts)
	}
}

func TestKVCheckCountsWrongReply(t *testing.T) {
	in := genKV(7, 1)
	s := memcached.NewPoolServer(1, core.PoolOptions{})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	a, b := &in.preload[0], &in.preload[1]
	for _, r := range []*memcached.Request{a, b} {
		resp, err := c.Do(r)
		if !checkKV(r, resp, err) {
			t.Fatalf("preload SET of %s failed its check", r.Key)
		}
	}
	get := &memcached.Request{Op: memcached.OpGet, Key: a.Key, Opaque: 9}
	resp, err := c.Do(get)
	if !checkKV(get, resp, err) {
		t.Fatal("checkKV rejected a correct GET")
	}

	missing := &memcached.Request{Op: memcached.OpGet, Key: "key:never-set", Opaque: 1}
	resp, err = c.Do(missing)
	assertFailed(t, "not found", checkKV(missing, resp, err), err)

	// Another key's bytes: ask for b, receive a's value.
	other := &memcached.Response{Op: memcached.OpGet, Opaque: 2, Value: a.Value}
	assertFailed(t, "other key", checkKV(&memcached.Request{Op: memcached.OpGet, Key: b.Key, Opaque: 2}, other, nil), nil)

	torn := append([]byte(nil), a.Value...)
	torn[len(torn)/2] ^= 1
	assertFailed(t, "torn value", checkKV(get, &memcached.Response{Op: memcached.OpGet, Opaque: 9, Value: torn}, nil), nil)
	assertFailed(t, "wrong opaque", checkKV(get, &memcached.Response{Op: memcached.OpGet, Opaque: 8, Value: a.Value}, nil), nil)
}

func TestVPNCheckCountsWrongReply(t *testing.T) {
	in := genVPN(7, 1)
	s := openvpn.NewPoolServer(1, core.PoolOptions{})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	n, err := c.Stream(in[0][0])
	if !checkVPN(n, err) {
		t.Fatalf("full window failed its check: n=%d err=%v", n, err)
	}
	n, err = c.Stream(in[0][1][:vpnFrames-1])
	assertFailed(t, "short window", checkVPN(n, err), err)
	assertFailed(t, "stream error", checkVPN(vpnFrames, openvpn.ErrBadMAC), openvpn.ErrBadMAC)
}

func TestWebCheckCountsWrongReply(t *testing.T) {
	in := genWeb(7, 1)
	s := lighttpd.NewPoolServer(1, core.PoolOptions{})
	s.AddDocument(in.paths[0], in.bodies[0])
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	resp, err := c.Do(in.raws[0])
	if !checkWeb(in.bodies[0], resp, err) {
		t.Fatal("checkWeb rejected a correct GET")
	}
	good := append([]byte(nil), resp...)

	resp, err = c.Do(in.raws[1]) // never added: 404
	assertFailed(t, "404", checkWeb(in.bodies[1], resp, err), err)

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	assertFailed(t, "body byte", checkWeb(in.bodies[0], flipped, nil), nil)
	assertFailed(t, "truncated", checkWeb(in.bodies[0], good[:len(good)-1], nil), nil)
}

func TestInputsFollowSeed(t *testing.T) {
	gens := map[string]func(int64) any{
		"call-bare":  func(s int64) any { return genCall(s) },
		"kv-window":  func(s int64) any { return genKV(s, 2) },
		"vpn-stream": func(s int64) any { return genVPN(s, 2) },
		"web-epc":    func(s int64) any { return genWeb(s, 2) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(11), gen(11)) {
			t.Errorf("%s: seed 11 gave two different input streams", name)
		}
		if reflect.DeepEqual(gen(11), gen(12)) {
			t.Errorf("%s: seeds 11 and 12 gave the same input stream", name)
		}
	}
}

func TestChecksDoNotAllocate(t *testing.T) {
	in := genKV(3, 1)
	req := &in.preload[0]
	get := &memcached.Request{Op: memcached.OpGet, Key: req.Key}
	resp := &memcached.Response{Op: memcached.OpGet, Value: req.Value}
	web := genWeb(3, 1)
	page := append([]byte("HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\n"), web.bodies[0]...)
	allocs := testing.AllocsPerRun(100, func() {
		if !checkKV(get, resp, nil) || !checkWeb(web.bodies[0], page, nil) || !checkCall(1, 2, nil) || !checkVPN(vpnFrames, nil) {
			panic("check failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("reply checks allocate %.1f times per op", allocs)
	}
}

func TestQuantileStaysInBucket(t *testing.T) {
	r := dist.NewRecorder(64)
	for v := uint64(1000); v < 2000; v++ {
		r.Record(v)
	}
	s := r.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := quantile(s, q)
		want := 1000 + q*999
		if d := got - want; d > 0.01*want || d < -0.01*want {
			t.Errorf("quantile(%v) = %.1f, want %.1f within 1%%", q, got, want)
		}
	}
	e := dist.NewRecorder(64)
	e.Record(7)
	if got := quantile(e.Snapshot(), 0.5); got != 7 {
		t.Errorf("exact-bucket quantile = %v, want 7", got)
	}
}

// TestWorkloadsRunClean sets every workload up, untraced and traced, and
// drives it briefly: no op may fail, and the traced phase must yield
// spans and flight timelines.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload")
	}
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			w := mk(5)
			for _, traced := range []bool{false, true} {
				fx, setupS := setUp(w, traced, nil)
				var trs []*tracer
				var h *harvester
				if traced {
					for c := 0; c < fx.conns; c++ {
						trs = append(trs, newTracer(c, 1024))
					}
					h = newHarvester(fx.tracing)
				}
				p := measure(fx, 100e6, trs, h)
				fx.stop()
				s := p.summarize()
				tag := fmt.Sprintf("traced=%v", traced)
				if setupS <= 0 || fx.failed != 0 || s.failed != 0 || s.ops == 0 {
					t.Fatalf("%s: setup %.3fs, setup failures %d, failed %d of %d", tag, setupS, fx.failed, s.failed, s.attempted)
				}
				if traced && (len(trs[0].log) == 0 || h.exec.Count() == 0) {
					t.Fatalf("%s: %d spans, %d flight records", tag, len(trs[0].log), h.exec.Count())
				}
			}
		})
	}
}
