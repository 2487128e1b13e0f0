package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeVector drives the wire codec with arbitrary bytes: decoding
// must never panic, must never accept a payload whose re-encoding
// differs (the codec is canonical), and must bound its allocation by
// the actual body length rather than the declared count.
func FuzzDecodeVector(f *testing.F) {
	f.Add(mustEncode(f, nil))
	f.Add(mustEncode(f, []float64{1, 2, 3}))
	f.Add(mustEncode(f, []float64{math.NaN(), math.Inf(-1)}))
	f.Add([]byte("SpV1 not a real payload"))
	f.Add([]byte{'S', 'p', 'V', '1', 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	short := mustEncode(f, []float64{4, 5})
	f.Add(short[:len(short)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := DecodeVector(data, 1<<16)
		if err != nil {
			return
		}
		// Accepted payloads are canonical: re-encoding reproduces the
		// input bit for bit.
		if re := mustEncode(t, x); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in %x\nout %x", data, re)
		}
	})
}

// FuzzShardPanelFrame drives both panel-frame decoders with arbitrary
// bytes: neither may panic, allocation is bounded by the real body
// length, and any accepted frame must be canonical — re-encoding the
// decoded range and de-interleaved panel reproduces the input bit for
// bit (which also proves the stored CRC is the one the encoder would
// compute).
func FuzzShardPanelFrame(f *testing.F) {
	f.Add(mustEncodePanelReq(f, 0, 4, [][]float64{{1, 2, 3}, {4, 5, 6}}))
	f.Add(mustEncodePanelReq(f, 9, 9, [][]float64{{}}))
	f.Add(mustEncodePanelPart(f, 3, 6, [][]float64{{math.NaN(), math.Inf(-1), -0.0}}))
	f.Add(mustEncodePanelPart(f, 0, 0, [][]float64{{}, {}}))
	f.Add([]byte("SpS2 not a real payload, far too short"))
	f.Add([]byte("SpP2 not a real payload, far too short"))
	hole := mustEncodePanelReq(f, 1, 5, [][]float64{{4, 5}, {6, 7}})
	f.Add(hole[:len(hole)-3])
	bad := mustEncodePanelPart(f, 0, 2, [][]float64{{6, 7}})
	bad[panelPartHeaderLen] ^= 0x01 // CRC now stale
	f.Add(bad)
	f.Add(mustEncodePanelReq(f, 0, 4, [][]float64{{1, 2, 3}}))
	f.Add(mustEncodePanelPart(f, 0, 0, [][]float64{{}}))
	// The retired version-1 magics must stay rejected.
	f.Add(append([]byte{'S', 'p', 'S', '1'}, " not a real payload, far too short"...))
	f.Add(append([]byte{'S', 'p', 'P', '1'}, " not a real payload, far too short"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if r0, r1, n, k, flat, err := DecodePanelInto(nil, data, 1<<16, 64); err == nil {
			re, err := EncodeShardPanel(r0, r1, PanelVecs(nil, flat, n, k))
			if err != nil {
				t.Fatalf("re-encode accepted panel request: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("panel request not canonical:\n in %x\nout %x", data, re)
			}
		}
		if r0, r1, k, flat, err := DecodePartialPanelInto(nil, data, 1<<16, 64); err == nil {
			re, err := AppendPartialPanel(nil, r0, r1, PanelVecs(nil, flat, r1-r0, k))
			if err != nil {
				t.Fatalf("re-encode accepted partial panel: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("partial panel not canonical:\n in %x\nout %x", data, re)
			}
		}
	})
}

// FuzzWireRoundTrip generates vectors from fuzz bytes and asserts the
// encode/decode round trip is bit-exact, including NaN payloads and
// negative zero.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, raw []byte) {
		x := make([]float64, len(raw)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		got, err := DecodeVector(mustEncode(t, x), len(x))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
				t.Fatalf("element %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(x[i]))
			}
		}
	})
}
