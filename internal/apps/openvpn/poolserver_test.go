package openvpn

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hotcalls/internal/core"
	"hotcalls/internal/epc"
	"hotcalls/internal/epcstat"
	"hotcalls/internal/flight"
	"hotcalls/internal/telemetry"
)

// fastVPNOpts keeps adaptive transitions quick in tests.
func fastVPNOpts(maxResponders int) core.PoolOptions {
	return core.PoolOptions{
		SlotsPerShard: vpnWindow,
		MinResponders: 1,
		MaxResponders: maxResponders,
		Timeout:       1 << 20,
		ControlWindow: 8,
		SpinPasses:    2,
		YieldPasses:   4,
	}
}

func testPayload(n, tag int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i ^ tag)
	}
	return p
}

func TestPoolTunnelForward(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	for i := 0; i < 20; i++ {
		payload := testPayload(IperfPayload, i)
		n, err := c.Forward(payload)
		if err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
		if n != FrameOverhead+len(payload) {
			t.Fatalf("frame len = %d, want %d", n, FrameOverhead+len(payload))
		}
	}
	if free := c.ring.FreeSlabs(); free != c.ring.Slabs() {
		t.Fatalf("slabs leaked: %d free of %d", free, c.ring.Slabs())
	}
}

func TestPoolTunnelTamperDrop(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	slab, segs, err := c.sealInto(testPayload(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one ciphertext bit in the slab — a tampered datagram.
	c.ring.Bytes(segs[1])[10] ^= 0x01
	ret, err := c.req.CallZC(opTunnel, 0, segs[:])
	c.ring.Release(slab)
	if err != nil || ret != ^uint64(0) {
		t.Fatalf("tampered frame = (%#x, %v), want sentinel", ret, err)
	}

	// A malformed descriptor list (no header segment) is also dropped.
	slab2, segs2, err := c.sealInto(testPayload(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	ret, err = c.req.CallZC(opTunnel, 0, segs2[1:])
	c.ring.Release(slab2)
	if err != nil || ret != ^uint64(0) {
		t.Fatalf("headerless frame = (%#x, %v), want sentinel", ret, err)
	}
}

func TestPoolTunnelStreamWindow(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	payloads := make([][]byte, vpnWindow)
	for round := 0; round < 4; round++ {
		for i := range payloads {
			payloads[i] = testPayload(IperfPayload, round*vpnWindow+i)
		}
		n, err := c.Stream(payloads)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n != vpnWindow {
			t.Fatalf("round %d relayed %d, want %d", round, n, vpnWindow)
		}
	}
}

func TestPoolTunnelPumpBytes(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	const packets = 100
	payload := testPayload(IperfPayload, 9)
	total, err := c.Pump(payload, packets)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(packets) * uint64(FrameOverhead+IperfPayload)
	if total != want {
		t.Fatalf("pumped %d bytes, want %d", total, want)
	}
	if free := c.ring.FreeSlabs(); free != c.ring.Slabs() {
		t.Fatalf("slabs leaked after pump: %d free of %d", free, c.ring.Slabs())
	}
}

func TestPoolTunnelConcurrentConnections(t *testing.T) {
	const conns = 4
	s := NewPoolServer(conns, fastVPNOpts(3))
	s.SetTelemetry(telemetry.New())
	s.Start()
	defer s.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		c := s.Conn(ci)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			payloads := make([][]byte, vpnWindow)
			for round := 0; round < 25; round++ {
				for i := range payloads {
					payloads[i] = testPayload(512, ci*1000+round*vpnWindow+i)
				}
				if n, err := c.Stream(payloads); err != nil || n != vpnWindow {
					errs <- fmt.Errorf("conn %d round %d: (%d, %v)", ci, round, n, err)
					return
				}
			}
			errs <- nil
		}(ci)
	}
	wg.Wait()
	for ci := 0; ci < conns; ci++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolTunnelEPCAttribution wires the paging model into the relay and
// checks slab-window traffic lands in the observatory owner-tagged by
// connection — the ring's SetTouch hook at work.
func TestPoolTunnelEPCAttribution(t *testing.T) {
	s := NewPoolServer(2, fastVPNOpts(2))
	reg := telemetry.New()
	s.SetTelemetry(reg)
	col := s.EnableEPC(256 * epc.PageSize)
	if col == nil || s.EPCManager() == nil {
		t.Fatal("EnableEPC returned no collector/manager")
	}
	if again := s.EnableEPC(64 * epc.PageSize); again != col {
		t.Fatal("EnableEPC is not idempotent")
	}
	s.Start()
	defer s.Stop()

	for conn := 0; conn < 2; conn++ {
		c := s.Conn(conn)
		for i := 0; i < 32; i++ {
			if _, err := c.Forward(testPayload(IperfPayload, conn*100+i)); err != nil {
				t.Fatalf("conn %d forward %d: %v", conn, i, err)
			}
		}
	}

	snap := col.Snapshot()
	if snap == nil || snap.Faults == 0 {
		t.Fatalf("no paging traffic observed: %+v", snap)
	}
	byLabel := map[string]epcstat.OwnerStats{}
	for _, o := range snap.Owners {
		byLabel[o.Label] = o
	}
	for conn := 0; conn < 2; conn++ {
		o, ok := byLabel[fmt.Sprintf("conn%d", conn)]
		if !ok || o.Faults == 0 {
			t.Fatalf("connection %d missing from owner table: %+v", conn, snap.Owners)
		}
	}
}

// TestPoolTunnelFlightBytes checks that zero-copy calls report their
// payload volume per callsite — the per-byte signal the what-if router's
// cost model consumes.
func TestPoolTunnelFlightBytes(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(2))
	s.SetTelemetry(telemetry.New())
	rec := flight.New(flight.Options{SampleEvery: 1})
	s.SetFlight(rec)
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	const forwards = 8
	payload := testPayload(1024, 3)
	for i := 0; i < forwards; i++ {
		if _, err := c.Forward(payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Pump(payload, vpnWindow); err != nil {
		t.Fatal(err)
	}

	frameBytes := uint64(FrameOverhead + len(payload))
	found := map[string]bool{}
	for _, cs := range rec.Stats() {
		switch cs.Name {
		case "vpn.forward":
			found[cs.Name] = true
			if cs.Bytes != forwards*frameBytes {
				t.Errorf("vpn.forward bytes = %d, want %d", cs.Bytes, forwards*frameBytes)
			}
		case "vpn.stream":
			found[cs.Name] = true
			if cs.Bytes != vpnWindow*frameBytes {
				t.Errorf("vpn.stream bytes = %d, want %d", cs.Bytes, vpnWindow*frameBytes)
			}
		}
	}
	for _, name := range []string{"vpn.forward", "vpn.stream"} {
		if !found[name] {
			t.Errorf("callsite %q missing from stats table", name)
		}
	}

	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("flight_callsite_bytes_total")) {
		t.Error("flight_callsite_bytes_total missing from exposition")
	}
}

// streamWindow is one full vpn-stream window: alternating 64 B and
// 1400 B datagrams.
func streamWindow() [][]byte {
	payloads := make([][]byte, vpnWindow)
	for i := range payloads {
		n := 64
		if i%2 == 1 {
			n = 1400
		}
		payloads[i] = testPayload(n, i)
	}
	return payloads
}

// TestPoolStreamAllocs pins the tunnel's per-frame allocation budget.
// Each frame crosses four crypto operations — the peer seals, the relay
// opens and re-seals, the peer verifies — and the only allocation left
// in each is cipher.NewCTR's keystream, so a 16-frame Stream window may
// allocate at most 4 per frame.  Re-keying the HMAC per frame or copying
// a frame to MAC or verify it breaks the budget.
func TestPoolStreamAllocs(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	payloads := streamWindow()
	allocs := testing.AllocsPerRun(50, func() {
		if n, err := c.Stream(payloads); err != nil || n != vpnWindow {
			t.Fatalf("Stream = (%d, %v)", n, err)
		}
	})
	if allocs > 4*vpnWindow {
		t.Fatalf("Stream allocates %.0f per %d-frame window, want <= %d (one per cipher.NewCTR)",
			allocs, vpnWindow, 4*vpnWindow)
	}
}

// BenchmarkPoolStream relays full vpn-stream windows through one
// connection; ns/op and allocs/op are per 16-frame window.
func BenchmarkPoolStream(b *testing.B) {
	s := NewPoolServer(1, core.PoolOptions{})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	payloads := streamWindow()
	b.SetBytes(int64(vpnWindow / 2 * (64 + 1400)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := c.Stream(payloads); err != nil || n != vpnWindow {
			b.Fatalf("Stream = (%d, %v)", n, err)
		}
	}
}
