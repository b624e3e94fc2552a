package core

import (
	"sync/atomic"
	"testing"
)

// TestPoolStalledBatchNoDoubleClaim pins the claim protocol's
// exactly-once guarantee with no dependence on timing or core count.
// Responder A claims a full-ring batch and stalls inside its third call;
// the requester reaps the two finished calls and posts two more into the
// freed cells; responder B then scans the same shard.  The cells past
// the fresh posts still hold A's claimed, unfinished calls from the
// previous lap, so B must claim exactly the two fresh posts — never
// re-run A's calls, never push tail past head.  Both responders are
// driven through scanPass directly and sequenced by channels, so every
// interleaving step is forced.
func TestPoolStalledBatchNoDoubleClaim(t *testing.T) {
	for _, zc := range []bool{false, true} {
		name := "plain"
		if zc {
			name = "zerocopy"
		}
		t.Run(name, func(t *testing.T) { stalledBatch(t, zc) })
	}
}

func stalledBatch(t *testing.T, zc bool) {
	const depth = 4
	const stall = 2 // A stalls inside the call at this position
	var runs [depth + 2]atomic.Int32
	entered := make(chan struct{})
	resume := make(chan struct{})
	exec := func(data uint64) uint64 {
		if runs[data].Add(1) == 1 && data == stall {
			close(entered)
			<-resume
		}
		return data + 100
	}
	p := NewCallPool([]PoolFunc{func(_ int, data uint64) uint64 { return exec(data) }},
		PoolOptions{Shards: 1, SlotsPerShard: depth, Timeout: 1 << 10, RingSlabs: 1, RingSlabBytes: 64})
	p.SetVecTable([]PoolVecFunc{func(_ int, data uint64, _ []Segment) uint64 { return exec(data) }})
	r := p.Requester()
	segs := []Segment{{Slab: 0, Off: 0, Len: 8}}
	var pending []*PoolPending
	submit := func(data uint64) {
		t.Helper()
		var pd *PoolPending
		var err error
		if zc {
			pd, err = r.SubmitZC(0, data, segs)
		} else {
			pd, err = r.Submit(0, data)
		}
		if err != nil {
			t.Fatalf("submit %d: %v", data, err)
		}
		pending = append(pending, pd)
	}
	collect := func(i int) {
		t.Helper()
		ret, err := pending[i].Wait()
		if err != nil || ret != uint64(i)+100 {
			t.Fatalf("call %d = (%d, %v), want %d", i, ret, err, i+100)
		}
	}

	for i := uint64(0); i < depth; i++ {
		submit(i) // fill the ring: positions 0..depth-1
	}
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		p.scanPass(0, 0) // responder A: one batch claim of the full ring
	}()
	<-entered // A has finished calls 0 and 1 and is inside call 2

	collect(0)
	collect(1)
	submit(depth) // positions depth, depth+1 reuse the cells of 0 and 1
	submit(depth + 1)

	sh := p.shards[0]
	_, execs := p.scanPass(1, 0) // responder B scans while A is stalled
	if execs != 2 {
		t.Errorf("responder B executed %d calls, want the 2 fresh posts", execs)
	}
	if tail, head := sh.tail.Load(), sh.head; tail > head {
		t.Errorf("tail %d passed head %d", tail, head)
	}

	close(resume)
	<-aDone
	for i := 2; i < len(pending); i++ {
		collect(i)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Errorf("call %d ran %d times, want exactly once", i, n)
		}
	}
}
