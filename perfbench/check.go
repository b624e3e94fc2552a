package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"

	"hotcalls/internal/apps/memcached"
)

// Reply checks.  Each returns true only for a reply that is exactly
// what the program must return for the input; everything else counts
// as a failed op.

// checkCall checks call-bare's handler result: data+1.
func checkCall(data, ret uint64, err error) bool {
	return err == nil && ret == data+1
}

// checkKV checks a memcached reply against its request.  Every key is
// preloaded and never deleted, so a GET must find a value; the value
// must carry the requested key and an intact checksum, which catches
// another key's bytes and a torn write.
func checkKV(req *memcached.Request, resp *memcached.Response, err error) bool {
	if err != nil || resp == nil || resp.Op != req.Op || resp.Opaque != req.Opaque || resp.Status != memcached.StatusOK {
		return false
	}
	if req.Op != memcached.OpGet {
		return len(resp.Value) == 0
	}
	return validValue(req.Key, resp.Value)
}

// validValue reports whether v is a value kvValue built for key.
func validValue(key string, v []byte) bool {
	if len(v) != memcached.ValueSize || int(v[0]) != len(key) || string(v[1:1+len(key)]) != key {
		return false
	}
	return binary.LittleEndian.Uint32(v[len(v)-4:]) == crc32.Checksum(v[:len(v)-4], castagnoli)
}

// checkVPN checks one Stream: Stream itself authenticates, replay-checks
// and compares the bytes of every relayed frame, so a full window with
// no error is correct.
func checkVPN(n int, err error) bool {
	return err == nil && n == vpnFrames
}

var okHead = []byte("HTTP/1.0 200 OK\r\n")
var headEnd = []byte("\r\n\r\n")

// checkWeb checks a lighttpd reply: status 200 and a body equal to the
// document.
func checkWeb(doc, resp []byte, err error) bool {
	if err != nil || !bytes.HasPrefix(resp, okHead) {
		return false
	}
	i := bytes.Index(resp, headEnd)
	return i >= 0 && bytes.Equal(resp[i+len(headEnd):], doc)
}
