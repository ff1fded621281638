package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"sort"
)

// ValueLen is the size of every value the benchmark writes.
const ValueLen = 256

// userBytes is one PUT's key and value, the base of write amplification.
const userBytes int64 = ValueLen + int64(len("user000000000000"))

// Value layout: [0,8) key index, [8,16) version, [16,248) filler derived
// from both, [248,256) CRC-64 of bytes [0,248). A GET result is checked
// against this encoding, so the benchmark never trusts the program's bytes.
const sumOff = ValueLen - 8

var crcTab = crc64.MakeTable(crc64.ECMA)

// EncodeValue fills dst (len ValueLen) with the value for key at version.
func EncodeValue(dst []byte, key, version uint64) {
	binary.LittleEndian.PutUint64(dst[0:], key)
	binary.LittleEndian.PutUint64(dst[8:], version)
	x := key*0x9E3779B97F4A7C15 ^ version ^ 0xD1B54A32D192ED03
	for i := 16; i < sumOff; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	binary.LittleEndian.PutUint64(dst[sumOff:], crc64.Checksum(dst[:sumOff], crcTab))
}

// DecodeValue returns the key index and version a value encodes; ok is
// false when its length or checksum is wrong.
func DecodeValue(v []byte) (key, version uint64, ok bool) {
	if len(v) != ValueLen || binary.LittleEndian.Uint64(v[sumOff:]) != crc64.Checksum(v[:sumOff], crcTab) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(v[0:]), binary.LittleEndian.Uint64(v[8:]), true
}

// never is the ack time of a write that was not acknowledged: a failed PUT
// may or may not have been applied, so it can be read but never makes an
// earlier version stale.
const never = math.MaxInt64

// write is one issued version of a key. Times are nanoseconds on the
// driver's monotonic clock; issued is taken before the request is sent and
// acked after the reply is received, so both err on the side of overlap.
type write struct{ issued, acked int64 }

// readResult classifies what a GET returned.
type readResult uint8

const (
	readValue    readResult = iota // a well-formed value for the key
	readNotFound                   // the program said the key is absent
	readCorrupt                    // wrong length or checksum
	readForeign                    // a well-formed value of another key
)

type read struct {
	key              uint32
	result           readResult
	version          uint64
	issued, returned int64
}

// History records every write and read the benchmark issued against one
// system, for the check at the end of a run. Versions are assigned per key
// in issue order starting at 1, so writes[k][v-1] is version v of key k.
// Not safe for concurrent use: callers run under the wallclock execution
// contract, which serializes them.
type History struct {
	writes [][]write
	reads  []read
}

// NewHistory returns an empty history over keys 0..keys-1.
func NewHistory(keys int) *History {
	return &History{writes: make([][]write, keys)}
}

// Issue assigns the next version of key, issued at now.
func (h *History) Issue(key uint32, now int64) uint64 {
	h.writes[key] = append(h.writes[key], write{issued: now, acked: never})
	return uint64(len(h.writes[key]))
}

// Ack records that version of key was acknowledged at now.
func (h *History) Ack(key uint32, version uint64, now int64) {
	h.writes[key][version-1].acked = now
}

// Read records one completed GET: val is the returned value, or nil with
// notFound set.
func (h *History) Read(key uint32, val []byte, notFound bool, issued, returned int64) {
	r := read{key: key, issued: issued, returned: returned}
	switch {
	case notFound:
		r.result = readNotFound
	default:
		k, v, ok := DecodeValue(val)
		switch {
		case !ok:
			r.result = readCorrupt
		case k != uint64(key):
			r.result = readForeign
		default:
			r.version = v
		}
	}
	h.reads = append(h.reads, r)
}

// Violation describes one GET whose result no correct store could return.
type Violation struct {
	Key      uint32
	Version  uint64
	Issued   int64
	Returned int64
	Why      string
}

func (v Violation) String() string {
	return fmt.Sprintf("key %d version %d (GET %d..%d ns): %s", v.Key, v.Version, v.Issued, v.Returned, v.Why)
}

// Check returns every read that violates the history rule. Every key is
// preloaded before the first read and never deleted, so NotFound is always
// a violation. A returned version must have been issued for its key no
// later than the GET returned, and must not be stale: stale means some
// other write to the key was issued after this version was acknowledged
// and was itself acknowledged before the GET was issued.
func (h *History) Check() []Violation {
	// minAckAfter[k][i] is the earliest ack among writes i.. of key k;
	// writes are in issue order, so it answers "was any write issued after
	// time t acknowledged before time u" with one binary search.
	minAckAfter := make([][]int64, len(h.writes))
	for k, ws := range h.writes {
		m := make([]int64, len(ws)+1)
		m[len(ws)] = never
		for i := len(ws) - 1; i >= 0; i-- {
			m[i] = min(ws[i].acked, m[i+1])
		}
		minAckAfter[k] = m
	}
	var out []Violation
	for _, r := range h.reads {
		bad := func(why string) {
			out = append(out, Violation{Key: r.key, Version: r.version, Issued: r.issued, Returned: r.returned, Why: why})
		}
		ws := h.writes[r.key]
		switch r.result {
		case readNotFound:
			bad("NotFound on a preloaded key")
			continue
		case readCorrupt:
			bad("value fails its checksum")
			continue
		case readForeign:
			bad("value belongs to another key")
			continue
		}
		if r.version == 0 || r.version > uint64(len(ws)) {
			bad("version was never issued")
			continue
		}
		w := ws[r.version-1]
		if w.issued > r.returned {
			bad("version was issued after the GET returned")
			continue
		}
		if w.acked == never {
			continue
		}
		// First write issued strictly after this version's ack.
		i := sort.Search(len(ws), func(i int) bool { return ws[i].issued > w.acked })
		if minAckAfter[r.key][i] < r.issued {
			bad("stale: a newer write was acknowledged before the GET was issued")
		}
	}
	return out
}
