package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"

	"hotcalls/internal/apps/memcached"
)

// All inputs are generated from the workload seed before set-up starts,
// so the timed loops only index into these slices.

// Input sizes.  The op rings are cycled when a run outlasts them.
const (
	callWords = 1 << 16

	kvKeys      = 4096
	kvOpsPerCon = 8192
	kvZipfS     = 1.01 // heaviest skew math/rand's Zipf accepts near YCSB's 0.99

	vpnWindowsPerCon = 64
	vpnFrames        = 16 // a full openvpn streaming window
	vpnSmall         = 64
	vpnLarge         = 1400

	webDocs      = 512
	webMinDoc    = 1 << 10
	webMaxDoc    = 20 << 10
	webReqPerCon = 8192
	webZipfS     = 1.01
)

// newRand derives a workload's generator from the run seed; the salt
// keeps two workloads on one seed from sharing a stream.
func newRand(seed int64, salt string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(salt); i++ {
		h ^= uint64(salt[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ int64(h)))
}

func genCall(seed int64) []uint64 {
	r := newRand(seed, "call-bare")
	d := make([]uint64, callWords)
	for i := range d {
		d[i] = r.Uint64()
	}
	return d
}

// kvInputs is the kv-window input set: every key's preload SET, and each
// connection's ring of requests.
type kvInputs struct {
	keys    []string
	preload []memcached.Request
	ops     [][]memcached.Request
}

// kvValue fills v (memcached.ValueSize bytes) with a self-checking
// value: key length, key, random filler, then a CRC-32C of everything
// before it.  A GET reply is correct when it parses back to the key
// asked for with a matching checksum.  CRC-32C runs in hardware, which
// keeps the check small beside the call it checks.
func kvValue(r *rand.Rand, key string, v []byte) {
	v[0] = byte(len(key))
	n := 1 + copy(v[1:], key)
	r.Read(v[n : len(v)-4])
	binary.LittleEndian.PutUint32(v[len(v)-4:], crc32.Checksum(v[:len(v)-4], castagnoli))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func genKV(seed int64, conns int) *kvInputs {
	r := newRand(seed, "kv-window")
	in := &kvInputs{keys: make([]string, kvKeys), preload: make([]memcached.Request, kvKeys)}
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("key:%04d:%08x", i, r.Uint32())
		v := make([]byte, memcached.ValueSize)
		kvValue(r, in.keys[i], v)
		in.preload[i] = memcached.Request{Op: memcached.OpSet, Key: in.keys[i], Value: v, Opaque: uint32(i)}
	}
	// Zipf ranks map through a permutation so hot keys scatter over the
	// store's lock stripes.
	perm := r.Perm(kvKeys)
	zipf := rand.NewZipf(r, kvZipfS, 1, kvKeys-1)
	in.ops = make([][]memcached.Request, conns)
	for c := range in.ops {
		ops := make([]memcached.Request, kvOpsPerCon)
		for i := range ops {
			key := in.keys[perm[zipf.Uint64()]]
			ops[i] = memcached.Request{Op: memcached.OpGet, Key: key, Opaque: uint32(i)}
			if r.Intn(2) == 0 {
				v := make([]byte, memcached.ValueSize)
				kvValue(r, key, v)
				ops[i].Op, ops[i].Value = memcached.OpSet, v
			}
		}
		in.ops[c] = ops
	}
	return in
}

// genVPN returns each connection's ring of full windows; payloads
// alternate the ping and iperf sizes.
func genVPN(seed int64, conns int) [][][][]byte {
	r := newRand(seed, "vpn-stream")
	out := make([][][][]byte, conns)
	for c := range out {
		out[c] = make([][][]byte, vpnWindowsPerCon)
		for w := range out[c] {
			win := make([][]byte, vpnFrames)
			for f := range win {
				n := vpnSmall
				if f%2 == 1 {
					n = vpnLarge
				}
				win[f] = make([]byte, n)
				r.Read(win[f])
			}
			out[c][w] = win
		}
	}
	return out
}

// webInputs is the web-epc input set: the docroot, in popularity
// order, and each connection's ring of document indexes.
type webInputs struct {
	paths  []string
	bodies [][]byte
	raws   []string // the GET request for each document
	reqs   [][]int32
}

// webDocSize is the size of the document at popularity rank r: the
// golden-ratio sequence spreads sizes evenly over 1–20 KB with no trend
// in rank, and fixing it per rank keeps the bytes per request, and so
// goodput, the same for every seed.  The seed picks the paths, the bytes
// and the request order.
func webDocSize(r int) int {
	const phi = 0.6180339887498949
	f := float64(r) * phi
	return webMinDoc + int((f-float64(int(f)))*float64(webMaxDoc-webMinDoc+1))
}

func genWeb(seed int64, conns int) *webInputs {
	r := newRand(seed, "web-epc")
	in := &webInputs{paths: make([]string, webDocs), bodies: make([][]byte, webDocs), raws: make([]string, webDocs)}
	for i := range in.paths {
		in.paths[i] = fmt.Sprintf("/doc/%04d-%06x.html", i, r.Intn(1<<24))
		in.raws[i] = "GET " + in.paths[i] + " HTTP/1.0\r\nHost: bench\r\n\r\n"
		b := make([]byte, webDocSize(i))
		r.Read(b)
		in.bodies[i] = b
	}
	zipf := rand.NewZipf(r, webZipfS, 1, webDocs-1)
	in.reqs = make([][]int32, conns)
	for c := range in.reqs {
		q := make([]int32, webReqPerCon)
		for i := range q {
			q[i] = int32(zipf.Uint64())
		}
		in.reqs[c] = q
	}
	return in
}
