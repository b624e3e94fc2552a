// Package openvpn is the paper's second evaluation application
// (Section 6.3): an encrypted UDP tunnel in the style of openVPN 2.3.12
// with OpenSSL, ported wholesale into an enclave to protect the tunnel
// keys.  The data path is real: packets are encrypted with AES-128-CTR and
// authenticated with HMAC-SHA256, and a tampered or replayed datagram is
// rejected.
package openvpn

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
)

// Tunnel framing: 4-byte packet ID (replay protection) + 16-byte truncated
// HMAC + ciphertext.
const (
	packetIDSize  = 4
	macSize       = 16
	FrameOverhead = packetIDSize + macSize
)

// Errors from the tunnel data path.
var (
	ErrBadMAC   = errors.New("openvpn: packet failed authentication")
	ErrReplay   = errors.New("openvpn: replayed packet ID")
	ErrShortPkt = errors.New("openvpn: truncated packet")
)

// Cipher is one direction of the tunnel: an AES-CTR key, a keyed
// HMAC-SHA256 state, and the replay window.  It mirrors an OpenSSL EVP
// cipher context; openVPN consults the PRNG (and thus calls getpid via
// OpenSSL) around context operations, which is why getpid appears in
// Table 2.
//
// The HMAC is keyed once, in NewCipher: each frame resets the keyed
// state instead of rebuilding the key pads, and the MAC sum and CTR IV
// land in buffers the Cipher owns, so a frame's only allocation is the
// CTR stream itself.  That makes a Cipher mutable on every operation,
// Open and the MAC check included: it is not safe for concurrent use.
// Serialize access, as the fabric relay does on its per-connection
// lock, or give each goroutine its own Cipher.
type Cipher struct {
	block   cipher.Block
	h       hash.Hash // HMAC-SHA256 keyed with the MAC key; Reset per frame
	sum     [sha256.Size]byte
	iv      [aes.BlockSize]byte
	nextID  uint32 // sender: next packet ID
	highest uint32 // receiver: highest ID seen (replay floor)
}

// NewCipher builds one direction from 16-byte cipher and 32-byte MAC keys.
func NewCipher(key [16]byte, macKey [32]byte) *Cipher {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // fixed-size key cannot fail
	}
	return &Cipher{block: block, h: hmac.New(sha256.New, macKey[:]), nextID: 1}
}

// stream returns the CTR keystream for packet id (IV = id, big-endian,
// zero-padded).
func (c *Cipher) stream(id uint32) cipher.Stream {
	binary.BigEndian.PutUint32(c.iv[:], id) // bytes 4.. stay zero
	return cipher.NewCTR(c.block, c.iv[:])
}

// mac computes the truncated tunnel MAC over a frame's packet-ID header
// and ciphertext body, written as two pieces so no caller has to
// coalesce them.  The result aliases the Cipher's sum buffer and is
// valid until the next call.
func (c *Cipher) mac(hdr, body []byte) []byte {
	c.h.Reset()
	c.h.Write(hdr)
	c.h.Write(body)
	return c.h.Sum(c.sum[:0])[:macSize]
}

// seal encrypts plaintext into ct (which may alias it exactly) under the
// next packet ID and writes the packet ID and MAC into the
// FrameOverhead-byte header hdr.
func (c *Cipher) seal(hdr, ct, plaintext []byte) {
	id := c.nextID
	c.nextID++
	binary.BigEndian.PutUint32(hdr[:packetIDSize], id)
	c.stream(id).XORKeyStream(ct, plaintext)
	copy(hdr[packetIDSize:FrameOverhead], c.mac(hdr[:packetIDSize], ct))
}

// authentic checks a frame's MAC in constant time and returns its packet
// ID.  Replay policy is the caller's: Open keeps a strict floor, the
// fabric relay a reorder-tolerant window.
func (c *Cipher) authentic(hdr, ct []byte) (uint32, bool) {
	ok := hmac.Equal(c.mac(hdr[:packetIDSize], ct), hdr[packetIDSize:FrameOverhead])
	return binary.BigEndian.Uint32(hdr[:packetIDSize]), ok
}

// Seal encrypts and authenticates one plaintext packet into dst and
// returns the frame length.
func (c *Cipher) Seal(dst, plaintext []byte) int {
	n := FrameOverhead + len(plaintext)
	c.seal(dst[:FrameOverhead], dst[FrameOverhead:n], plaintext)
	return n
}

// Open authenticates and decrypts one frame into dst, enforcing the
// replay window.  It returns the plaintext length.
func (c *Cipher) Open(dst, frame []byte) (int, error) {
	if len(frame) < FrameOverhead {
		return 0, ErrShortPkt
	}
	ct := frame[FrameOverhead:]
	id, ok := c.authentic(frame[:FrameOverhead], ct)
	if !ok {
		return 0, ErrBadMAC
	}
	if id <= c.highest {
		return 0, ErrReplay
	}
	c.highest = id
	c.stream(id).XORKeyStream(dst[:len(ct)], ct)
	return len(ct), nil
}
