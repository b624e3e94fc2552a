package openvpn

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"hotcalls/internal/core"
)

// refSeal is the from-scratch reference construction of one tunnel
// frame: a fresh cipher.NewCTR keystream with IV = packet ID, and a
// fresh hmac.New(sha256.New, macKey) over the contiguous packet-ID ||
// ciphertext bytes, truncated to macSize.  Nothing is shared with
// Cipher, so a match proves the keyed-once Cipher puts the same bytes on
// the wire.
func refSeal(key [16]byte, macKey [32]byte, id uint32, plaintext []byte) []byte {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint32(iv[:], id)
	ct := make([]byte, len(plaintext))
	cipher.NewCTR(block, iv[:]).XORKeyStream(ct, plaintext)
	var idb [packetIDSize]byte
	binary.BigEndian.PutUint32(idb[:], id)
	h := hmac.New(sha256.New, macKey[:])
	h.Write(append(idb[:], ct...))
	frame := append(idb[:], h.Sum(nil)[:macSize]...)
	return append(frame, ct...)
}

// wireSizes spans the CTR block boundaries and both vpn-stream frame
// sizes.
var wireSizes = []int{0, 1, 15, 16, 17, 64, 1400}

// Digests of the frames the two golden tests produce, recorded from the
// per-frame hmac.New construction the keyed Cipher replaced.
const (
	goldenSealDigest  = "ff2ad3f5879462837fcc545621e4ec058fe5c9b1c58e6db14c2fd85779bd5936"
	goldenRelayDigest = "d98a98455ad58307f8aa890d8de0455821538b7a86cfdec45643ad7d9fbc38a3"
)

// TestCipherWireMatchesReference seals three laps of every size with one
// Cipher (so the keyed hash is reset across frames) and checks each
// frame byte-for-byte against the reference; in the reverse direction,
// every reference frame opens with a Cipher.
func TestCipherWireMatchesReference(t *testing.T) {
	ck, mk := testKeys()
	tx, rx := NewCipher(ck, mk), NewCipher(ck, mk)
	digest := sha256.New()
	for lap := 0; lap < 3; lap++ {
		for j, n := range wireSizes {
			id := uint32(lap*len(wireSizes) + j + 1)
			payload := testPayload(n, int(id))
			frame := make([]byte, FrameOverhead+n)
			tx.Seal(frame, payload)
			want := refSeal(ck, mk, id, payload)
			if !bytes.Equal(frame, want) {
				t.Fatalf("id %d (%d B): Seal = %x, reference %x", id, n, frame, want)
			}
			digest.Write(frame)

			out := make([]byte, n)
			pn, err := rx.Open(out, want)
			if err != nil || !bytes.Equal(out[:pn], payload) {
				t.Fatalf("id %d (%d B): Open(reference) = (%d, %v)", id, n, pn, err)
			}
		}
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != goldenSealDigest {
		t.Fatalf("sealed-frame digest %s, want %s", got, goldenSealDigest)
	}
}

// TestPoolTunnelWireMatchesReference checks the fabric relay in both
// directions against the reference: a reference-sealed inbound frame
// (client → server keys) is accepted by the tunnel handler, and the
// frame it re-seals in place is exactly the reference frame under the
// server → client keys with the relay's next packet ID.
func TestPoolTunnelWireMatchesReference(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	rk, tk, mk := connKeys(0)
	digest := sha256.New()
	for i, n := range wireSizes {
		id := uint32(i + 1)
		payload := testPayload(n, i)
		slab, buf, ok := c.ring.Acquire()
		if !ok {
			t.Fatal("no free slab")
		}
		copy(buf, refSeal(rk, mk, id, payload))
		segs := []core.Segment{
			{Slab: slab, Off: 0, Len: FrameOverhead},
			{Slab: slab, Off: FrameOverhead, Len: uint32(n)},
		}
		ret, err := c.req.CallZC(opTunnel, 0, segs)
		if err != nil || ret != uint64(FrameOverhead+n) {
			t.Fatalf("id %d (%d B): relay = (%#x, %v)", id, n, ret, err)
		}
		got := c.ring.Slab(slab)[:ret]
		if want := refSeal(tk, mk, id, payload); !bytes.Equal(got, want) {
			t.Fatalf("id %d (%d B): relayed %x, reference %x", id, n, got, want)
		}
		digest.Write(got)
		c.ring.Release(slab)
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != goldenRelayDigest {
		t.Fatalf("relayed-frame digest %s, want %s", got, goldenRelayDigest)
	}
}

// FuzzTunnelOpen drives arbitrary header and body bytes through both
// frame-open paths — Cipher.Open and the fabric tunnel handler via its
// two scatter-gather segments — and checks that neither panics, that
// each accepts only a frame Seal produced, and that a sealed frame
// round-trips (while any one-bit flip of it is rejected).
func FuzzTunnelOpen(f *testing.F) {
	rk, tk, mk := connKeys(0)
	sealed := refSeal(rk, mk, 1, []byte("fuzz seed payload"))
	f.Add(sealed[:FrameOverhead], sealed[FrameOverhead:], uint16(0))
	f.Add([]byte{}, []byte{}, uint16(1))
	s := NewPoolServer(1, core.PoolOptions{RingSlabs: 2})
	ring := s.pool.Ring(0)
	f.Fuzz(func(t *testing.T, hdr, body []byte, flip uint16) {
		frame := append(append([]byte{}, hdr...), body...)

		// Arbitrary bytes through Cipher.Open: acceptance means the
		// frame is exactly what Seal makes for its ID and plaintext.
		out := make([]byte, len(frame))
		if n, err := NewCipher(rk, mk).Open(out, frame); err == nil {
			id := binary.BigEndian.Uint32(frame)
			if want := refSeal(rk, mk, id, out[:n]); !bytes.Equal(frame, want) {
				t.Fatalf("Open accepted a frame Seal did not produce: %x", frame)
			}
		}

		// The same bytes through the relay handler's segments, header
		// and body in separate slabs, against a fresh replay window.
		if len(hdr) <= slabFrameCap && len(body) <= slabFrameCap {
			s.tunnels[0].rxWin = replayWindow{}
			copy(ring.Slab(0), hdr)
			copy(ring.Slab(1), body)
			segs := []core.Segment{
				{Slab: 0, Len: uint32(len(hdr))},
				{Slab: 1, Len: uint32(len(body))},
			}
			if ret := s.tunnel(0, 0, segs); ret != ^uint64(0) {
				if ret != uint64(len(frame)) || len(hdr) != FrameOverhead {
					t.Fatalf("relay returned %d for a %d+%d B frame", ret, len(hdr), len(body))
				}
				// Recover the plaintext from the re-sealed output, then
				// check the input was the sealed frame for it.
				resealed := append(append([]byte{}, ring.Bytes(segs[0])...), ring.Bytes(segs[1])...)
				plain := make([]byte, len(body))
				if _, err := NewCipher(tk, mk).Open(plain, resealed); err != nil {
					t.Fatalf("relay output does not open: %v", err)
				}
				if want := refSeal(rk, mk, binary.BigEndian.Uint32(hdr), plain); !bytes.Equal(frame, want) {
					t.Fatalf("relay accepted a frame Seal did not produce: %x", frame)
				}
			}
		}

		// body as a plaintext: seal, open, and reject any one-bit flip.
		tx := NewCipher(rk, mk)
		sealed := make([]byte, FrameOverhead+len(body))
		tx.Seal(sealed, body)
		got := make([]byte, len(body))
		if n, err := NewCipher(rk, mk).Open(got, sealed); err != nil || !bytes.Equal(got[:n], body) {
			t.Fatalf("sealed frame did not round-trip: (%d, %v)", n, err)
		}
		bit := int(flip) % (8 * len(sealed))
		sealed[bit/8] ^= 1 << (bit % 8)
		if _, err := NewCipher(rk, mk).Open(got, sealed); err == nil {
			t.Fatalf("Open accepted a frame with bit %d flipped", bit)
		}
	})
}

// TestVerifyOutReportsFirstCorruptByte checks the peer's relay check
// still compares the whole payload and names the first differing byte.
func TestVerifyOutReportsFirstCorruptByte(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(1))
	c := s.Conn(0)
	_, tk, mk := connKeys(0)
	payload := testPayload(1400, 5)
	want := append([]byte{}, payload...)
	want[1399] ^= 0x80
	err := c.verifyOut(refSeal(tk, mk, 1, payload), want)
	if err == nil || err.Error() != "openvpn: payload corrupted at byte 1399" {
		t.Fatalf("verifyOut = %v, want corruption at byte 1399", err)
	}
	if err := c.verifyOut(refSeal(tk, mk, 2, payload), payload); err != nil {
		t.Fatalf("verifyOut(intact frame) = %v", err)
	}
}
