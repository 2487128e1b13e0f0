package server

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func mustEncodePanelReq(tb testing.TB, row0, row1 int, xs [][]float64) []byte {
	tb.Helper()
	data, err := EncodeShardPanel(row0, row1, xs)
	if err != nil {
		tb.Fatalf("EncodeShardPanel([%d,%d), k=%d): %v", row0, row1, len(xs), err)
	}
	return data
}

func mustEncodePanelPart(tb testing.TB, row0, row1 int, ys [][]float64) []byte {
	tb.Helper()
	data, err := AppendPartialPanel(nil, row0, row1, ys)
	if err != nil {
		tb.Fatalf("AppendPartialPanel([%d,%d), k=%d): %v", row0, row1, len(ys), err)
	}
	return data
}

// TestShardWireRoundTrip sends a single vector as a panel of one: k=1
// request and partial frames round trip bit for bit, NaN, −0, ±Inf and
// empty row ranges included.
func TestShardWireRoundTrip(t *testing.T) {
	roundTripPanel(t, 0, 0, [][]float64{{}})
	roundTripPanel(t, 7, 7, [][]float64{{}})
	roundTripPanel(t, 100, 228, [][]float64{{0, -1, math.Pi, math.Inf(1), math.NaN(), -0.0, math.Inf(-1)}})

	roundTripPartial(t, 5, 5, [][]float64{{}})
	roundTripPartial(t, 3, 7, [][]float64{{math.NaN(), -0.0, math.Inf(1), math.Inf(-1)}})
}

func TestPanelWireRoundTrip(t *testing.T) {
	roundTripPanel(t, 0, 4, [][]float64{{1.5, -2}})
	roundTripPanel(t, 7, 7, [][]float64{{}, {}})
	roundTripPanel(t, 100, 228, [][]float64{
		{0, -1, math.Pi},
		{math.Inf(1), math.NaN(), -0.0},
		{1e-300, 1e300, 42},
	})

	// Partial panels: per-vector length is pinned to the row range.
	roundTripPartial(t, 10, 14, [][]float64{{2, -4, math.NaN(), 8}, {0, -0.0, 1, 2}})
}

// roundTripPanel encodes xs as a request panel for rows [row0, row1),
// decodes it, and checks the range, shape and every element's bits.
func roundTripPanel(t *testing.T, row0, row1 int, xs [][]float64) {
	t.Helper()
	req := mustEncodePanelReq(t, row0, row1, xs)
	n := len(xs[0])
	r0, r1, gn, gk, flat, err := DecodePanelInto(nil, req, n, len(xs))
	if err != nil {
		t.Fatalf("decode panel [%d,%d): %v", row0, row1, err)
	}
	if r0 != row0 || r1 != row1 || gn != n || gk != len(xs) {
		t.Fatalf("panel round trip: [%d,%d) n=%d k=%d, want [%d,%d) n=%d k=%d",
			r0, r1, gn, gk, row0, row1, n, len(xs))
	}
	got := PanelVecs(nil, flat, gn, gk)
	for l := range xs {
		for j := range xs[l] {
			if math.Float64bits(got[l][j]) != math.Float64bits(xs[l][j]) {
				t.Fatalf("panel vector %d element %d: %v != %v (bit-level)", l, j, got[l][j], xs[l][j])
			}
		}
	}
}

// roundTripPartial is roundTripPanel for a partial panel, whose vectors
// each hold one element per row of [row0, row1).
func roundTripPartial(t *testing.T, row0, row1 int, ys [][]float64) {
	t.Helper()
	rows, k := row1-row0, len(ys)
	part := mustEncodePanelPart(t, row0, row1, ys)
	r0, r1, gk, flat, err := DecodePartialPanelInto(nil, part, rows, k)
	if err != nil {
		t.Fatalf("decode partial panel [%d,%d): %v", row0, row1, err)
	}
	if r0 != row0 || r1 != row1 || gk != k {
		t.Fatalf("partial panel round trip: [%d,%d) k=%d, want [%d,%d) k=%d", r0, r1, gk, row0, row1, k)
	}
	got := PanelVecs(nil, flat, rows, k)
	for l := range ys {
		for i := range ys[l] {
			if math.Float64bits(got[l][i]) != math.Float64bits(ys[l][i]) {
				t.Fatalf("partial vector %d element %d: %v != %v (bit-level)", l, i, got[l][i], ys[l][i])
			}
		}
	}
}

// TestShardWireEncodeGuards checks the row-range guards of both
// encoders on a single vector.
func TestShardWireEncodeGuards(t *testing.T) {
	if _, err := EncodeShardPanel(4, 2, [][]float64{{1}}); !errors.Is(err, ErrWireRange) {
		t.Errorf("inverted request range: err = %v, want ErrWireRange", err)
	}
	if _, err := EncodeShardPanel(-1, 2, [][]float64{{1}}); !errors.Is(err, ErrWireRange) {
		t.Errorf("negative row0: err = %v, want ErrWireRange", err)
	}
	if _, err := AppendPartialPanel(nil, 5, 3, [][]float64{{1}}); !errors.Is(err, ErrWireRange) {
		t.Errorf("inverted partial range: err = %v, want ErrWireRange", err)
	}
	// A partial frame whose element count disagrees with its range is a
	// lie about which rows it carries; the encoder refuses to build it.
	if _, err := AppendPartialPanel(nil, 0, 3, [][]float64{{1, 2}}); !errors.Is(err, ErrWirePanel) {
		t.Errorf("partial range/len mismatch: err = %v, want ErrWirePanel", err)
	}
}

func TestPanelWireEncodeGuards(t *testing.T) {
	if _, err := EncodeShardPanel(4, 2, [][]float64{{1}, {2}}); !errors.Is(err, ErrWireRange) {
		t.Errorf("inverted panel range: err = %v, want ErrWireRange", err)
	}
	// An empty panel claims rows while carrying nothing; refused.
	if _, err := EncodeShardPanel(0, 4, nil); !errors.Is(err, ErrWirePanel) {
		t.Errorf("k=0 panel: err = %v, want ErrWirePanel", err)
	}
	// Ragged panels cannot be interleaved.
	if _, err := EncodeShardPanel(0, 4, [][]float64{{1, 2}, {3}}); !errors.Is(err, ErrWirePanel) {
		t.Errorf("ragged panel: err = %v, want ErrWirePanel", err)
	}
	if _, err := AppendPartialPanel(nil, 5, 3, [][]float64{{1}, {2}}); !errors.Is(err, ErrWireRange) {
		t.Errorf("inverted partial panel range: err = %v, want ErrWireRange", err)
	}
	if _, err := AppendPartialPanel(nil, 0, 3, nil); !errors.Is(err, ErrWirePanel) {
		t.Errorf("k=0 partial panel: err = %v, want ErrWirePanel", err)
	}
	// A partial panel whose vector length disagrees with its range lies
	// about which rows it carries.
	if _, err := AppendPartialPanel(nil, 0, 3, [][]float64{{1, 2}, {3, 4}}); !errors.Is(err, ErrWirePanel) {
		t.Errorf("partial panel range/len mismatch: err = %v, want ErrWirePanel", err)
	}
}

// TestShardWireDecodeErrors runs the decoders' rejection table on
// frames carrying a single vector.
func TestShardWireDecodeErrors(t *testing.T) { checkWireDecodeErrors(t, 1) }

// TestPanelWireDecodeErrors runs the same table on two-vector panels.
func TestPanelWireDecodeErrors(t *testing.T) { checkWireDecodeErrors(t, 2) }

// checkWireDecodeErrors feeds both decoders broken frames of width k:
// wrong magic, inverted or oversized ranges and widths, truncation,
// trailing bytes, corruption, and forged counts.
func checkWireDecodeErrors(t *testing.T, k int) {
	t.Helper()
	panel := func(n int) [][]float64 {
		vs := make([][]float64, k)
		for l := range vs {
			vs[l] = make([]float64, n)
			for j := range vs[l] {
				vs[l][j] = float64(l*n + j + 1)
			}
		}
		return vs
	}
	req := mustEncodePanelReq(t, 2, 6, panel(3))
	part := mustEncodePanelPart(t, 2, 5, panel(3))

	corrupt := func(data []byte, at int) []byte {
		c := append([]byte{}, data...)
		c[at] ^= 0x40
		return c
	}
	setU32 := func(data []byte, off int, v uint32) []byte {
		c := append([]byte{}, data...)
		binary.LittleEndian.PutUint32(c[off:], v)
		return c
	}
	// A frame of the retired single-vector family: the same magic with
	// version byte '1'.
	v1 := func(data []byte) []byte {
		c := append([]byte{}, data...)
		c[3] = '1'
		return c
	}

	reqCases := []struct {
		name       string
		data       []byte
		maxN, maxK int
		want       error
	}{
		{"empty", nil, 8, 8, ErrWireTruncated},
		{"short header", req[:24], 8, 8, ErrWireTruncated},
		{"vector magic", mustEncode(t, []float64{1, 2, 3}), 8, 8, ErrWireMagic},
		{"version-1 magic", v1(req), 8, 8, ErrWireMagic},
		{"inverted range", setU32(req, 12, 1), 8, 8, ErrWireRange},
		{"oversized n", req, 2, 8, ErrWireTooLarge},
		{"oversized k", req, 8, k - 1, ErrWirePanel},
		{"forged k=0", setU32(req, 20, 0), 8, 8, ErrWirePanel},
		{"truncated body", req[:len(req)-1], 8, 8, ErrWireTruncated},
		{"trailing", append(append([]byte{}, req...), 0), 8, 8, ErrWireTrailing},
		{"corrupt element", corrupt(req, panelReqHeaderLen+5), 8, 8, ErrWireChecksum},
		{"corrupt crc", corrupt(req, 25), 8, 8, ErrWireChecksum},
	}
	for _, tc := range reqCases {
		if _, _, _, _, _, err := DecodePanelInto(nil, tc.data, tc.maxN, tc.maxK); !errors.Is(err, tc.want) {
			t.Errorf("k=%d: panel request %s: err = %v, want %v", k, tc.name, err, tc.want)
		}
	}

	partCases := []struct {
		name          string
		data          []byte
		maxRows, maxK int
		want          error
	}{
		{"empty", nil, 8, 8, ErrWireTruncated},
		{"short header", part[:20], 8, 8, ErrWireTruncated},
		{"request magic", req, 8, 8, ErrWireMagic},
		{"version-1 magic", v1(part), 8, 8, ErrWireMagic},
		{"inverted range", setU32(part, 12, 1), 8, 8, ErrWireRange},
		{"oversized range", part, 2, 8, ErrWireTooLarge},
		{"oversized k", part, 8, k - 1, ErrWirePanel},
		{"forged k=0", setU32(part, 16, 0), 8, 8, ErrWirePanel},
		{"truncated body", part[:len(part)-2], 8, 8, ErrWireTruncated},
		{"trailing", append(append([]byte{}, part...), 0), 8, 8, ErrWireTrailing},
		{"corrupt element", corrupt(part, panelPartHeaderLen), 8, 8, ErrWireChecksum},
	}
	for _, tc := range partCases {
		if _, _, _, _, err := DecodePartialPanelInto(nil, tc.data, tc.maxRows, tc.maxK); !errors.Is(err, tc.want) {
			t.Errorf("k=%d: partial panel %s: err = %v, want %v", k, tc.name, err, tc.want)
		}
	}

	// Forged counts cannot drive a large allocation: n, k, the row range
	// and their products are validated against the caps and the actual
	// body length before the flat slice exists.
	forgedN := setU32(req, 16, 0xffffffff)
	if _, _, _, _, _, err := DecodePanelInto(nil, forgedN, 1<<30, 8); !errors.Is(err, ErrWireTooLarge) {
		t.Fatalf("k=%d: forged panel n: err = %v, want ErrWireTooLarge", k, err)
	}
	forgedK := setU32(part, 16, 0xffffffff)
	if _, _, _, _, err := DecodePartialPanelInto(nil, forgedK, 8, 1<<33); !errors.Is(err, ErrWireTruncated) {
		t.Fatalf("k=%d: forged partial k: err = %v, want ErrWireTruncated", k, err)
	}
	forgedRows := setU32(part, 12, 0xffff)
	if _, _, _, _, err := DecodePartialPanelInto(nil, forgedRows, 1<<30, k); !errors.Is(err, ErrWireTruncated) {
		t.Fatalf("k=%d: forged partial range: err = %v, want ErrWireTruncated", k, err)
	}
}

// TestShardWireZeroAlloc pins the pooled paths of the shard hot path for
// a lone vector: k=1 takes the straight-vector branches of the encoder
// and of deinterleave, and neither they nor the decoders allocate.
func TestShardWireZeroAlloc(t *testing.T) {
	checkWireZeroAlloc(t, [][]float64{{1, 2, 3, 4, 5, 6, 7}})
}

// TestPanelWireZeroAlloc pins the same for a three-vector panel — the
// scatter path depends on both.
func TestPanelWireZeroAlloc(t *testing.T) {
	checkWireZeroAlloc(t, [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}})
}

// checkWireZeroAlloc checks that steady-state encode into sufficient
// capacity and decodes into sufficient scratch perform no allocations.
func checkWireZeroAlloc(t *testing.T, xs [][]float64) {
	t.Helper()
	k, n := len(xs), len(xs[0])
	req := mustEncodePanelReq(t, 0, 9, xs)
	part := mustEncodePanelPart(t, 0, n, xs)
	scratch := make([]float64, 0, 32)
	buf := make([]byte, 0, len(req)+8)

	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendShardPanel(buf[:0], 0, 9, xs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("k=%d: steady-state AppendShardPanel allocates %.1f/op, want 0", k, allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, _, _, err := DecodePanelInto(scratch, req, 16, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("k=%d: steady-state DecodePanelInto allocates %.1f/op, want 0", k, allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, _, err := DecodePartialPanelInto(scratch, part, 16, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("k=%d: steady-state DecodePartialPanelInto allocates %.1f/op, want 0", k, allocs)
	}
}
