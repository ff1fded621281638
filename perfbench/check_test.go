package main

import (
	"strings"
	"testing"
)

func value(key, version uint64) []byte {
	v := make([]byte, ValueLen)
	EncodeValue(v, key, version)
	return v
}

func TestValueRoundTrip(t *testing.T) {
	v := value(17, 3)
	k, ver, ok := DecodeValue(v)
	if !ok || k != 17 || ver != 3 {
		t.Fatalf("decode = %d, %d, %v; want 17, 3, true", k, ver, ok)
	}
	for _, i := range []int{0, 9, 100, ValueLen - 1} {
		c := append([]byte(nil), v...)
		c[i] ^= 1
		if _, _, ok := DecodeValue(c); ok {
			t.Errorf("flipping byte %d went unnoticed", i)
		}
	}
	if _, _, ok := DecodeValue(v[:ValueLen-1]); ok {
		t.Error("short value decoded")
	}
}

// preloaded returns a history with version 1 of each key written and
// acknowledged in [0, 10].
func preloaded(keys int) *History {
	h := NewHistory(keys)
	for k := 0; k < keys; k++ {
		h.Ack(uint32(k), h.Issue(uint32(k), 0), 10)
	}
	return h
}

func TestCheckPassesOverlappingWrites(t *testing.T) {
	h := preloaded(2)
	// Versions 2 and 3 of key 0 overlap each other and the reads below.
	v2 := h.Issue(0, 100)
	v3 := h.Issue(0, 110)
	h.Read(0, value(0, 1), false, 105, 120) // old value while both are in flight
	h.Read(0, value(0, 3), false, 112, 125) // the later write, before its ack
	h.Ack(0, v3, 130)
	h.Read(0, value(0, 2), false, 131, 140) // v2 not yet acked: may land after v3
	h.Ack(0, v2, 150)
	h.Read(0, value(0, 2), false, 151, 160) // v2 and v3 overlapped: either order is legal
	h.Read(0, value(0, 3), false, 151, 160)
	// A failed write may have been applied, at any time after its issue.
	h.Issue(1, 200)
	h.Read(1, value(1, 1), false, 300, 310)
	h.Read(1, value(1, 2), false, 300, 310)
	if vs := h.Check(); len(vs) != 0 {
		t.Fatalf("legal history flagged: %v", vs)
	}
}

func TestCheckFlagsInjectedFaults(t *testing.T) {
	cases := []struct {
		name string
		val  []byte
		nf   bool
		why  string
	}{
		{"stale", value(0, 1), false, "stale"},
		{"foreign", value(1, 2), false, "another key"},
		{"corrupt", func() []byte { v := value(0, 2); v[40] ^= 0xff; return v }(), false, "checksum"},
		{"never issued", value(0, 9), false, "never issued"},
		{"from the future", value(0, 3), false, "issued after"},
		{"lost key", nil, true, "NotFound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := preloaded(2)
			h.Ack(0, h.Issue(0, 100), 110) // version 2, acknowledged
			h.Read(0, c.val, c.nf, 120, 130)
			h.Issue(0, 140) // version 3, issued after the read returned
			vs := h.Check()
			if len(vs) != 1 || !strings.Contains(vs[0].Why, c.why) {
				t.Fatalf("violations = %v; want one mentioning %q", vs, c.why)
			}
		})
	}
}

func TestCheckStaleNeedsAckBeforeIssue(t *testing.T) {
	h := preloaded(1)
	v2 := h.Issue(0, 100)
	h.Ack(0, v2, 200)
	// Version 1 read by a GET issued before version 2's ack: legal.
	h.Read(0, value(0, 1), false, 199, 250)
	if vs := h.Check(); len(vs) != 0 {
		t.Fatalf("concurrent read flagged: %v", vs)
	}
	// The same read issued after the ack: stale.
	h.Read(0, value(0, 1), false, 201, 250)
	if vs := h.Check(); len(vs) != 1 {
		t.Fatalf("violations = %v; want the one stale read", vs)
	}
}
