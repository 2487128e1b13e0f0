package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// The shard wire extends the SpV1 vector codec with the two frames of
// the row-sharded data plane. Each carries a k-wide panel, so a
// coordinator that has coalesced k concurrent callers pays one frame per
// shard per panel — and the worker pays its matrix stream once per
// panel — instead of once per call; a single vector is a panel of one.
// Both frames carry the global row range so a response can never be
// attributed to the wrong rows, and a CRC-32C of the element bytes so a
// frame corrupted in flight — the chaos harness flips bytes mid-stream —
// is detected and retried instead of silently contributing wrong values
// to the gathered result. Decoding is strict (wrong magic, unknown kind,
// reserved bytes, inverted ranges, k = 0, counts above the caller's
// caps, truncation, trailing garbage and checksum mismatches all fail
// with typed errors) without panicking and without allocating
// proportionally to forged counts.
//
// Panel request (coordinator -> shard worker), magic "SpS2":
//
//	offset  size      field
//	0       4         magic "SpS2"
//	4       2         element kind, little-endian (1 = float64)
//	6       2         reserved, must be zero
//	8       4         row0, little-endian (global first row of the shard)
//	12      4         row1, little-endian (global one-past-last row)
//	16      4         element count n of each x vector
//	20      4         panel width k (number of right-hand sides, >= 1)
//	24      4         CRC-32C (Castagnoli) of the element bytes
//	28      8*n*k     x panel, row-major: element j*k+l is x_l[j]
//
// Panel partial (shard worker -> coordinator), magic "SpP2":
//
//	offset  size      field
//	0       4         magic "SpP2"
//	4       2         element kind, little-endian (1 = float64)
//	6       2         reserved, must be zero
//	8       4         row0, little-endian
//	12      4         row1, little-endian
//	16      4         panel width k (>= 1)
//	20      4         CRC-32C of the element bytes
//	24      8*(row1-row0)*k  y panel, row-major: element i*k+l is y_l[i]
//
// The element bytes are row-major — the layout MulRangeMulti consumes —
// so the panel a worker computes is the panel the wire carries. At
// k = 1 they are simply the one vector in order.

var (
	panelReqMagic  = [4]byte{'S', 'p', 'S', '2'}
	panelPartMagic = [4]byte{'S', 'p', 'P', '2'}
)

const (
	panelReqHeaderLen  = 28
	panelPartHeaderLen = 24
	// ContentTypePanelRequest and ContentTypePanelPartial are the MIME
	// types of the two panel frames.
	ContentTypePanelRequest = "application/x-spmv-panel-request"
	ContentTypePanelPartial = "application/x-spmv-panel-partial"
)

// Typed shard-wire errors, joining the SpV1 set.
var (
	// ErrWireRange marks a frame whose row range is inverted, does not fit
	// 32 bits, or does not match the range the receiver expected.
	ErrWireRange = errors.New("server: wire: bad shard row range")
	// ErrWireChecksum marks a frame whose element bytes fail the CRC-32C —
	// the signature of mid-stream corruption.
	ErrWireChecksum = errors.New("server: wire: element checksum mismatch")
)

// castagnoli is the CRC-32C table shared by the shard and update frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkWireRange guards the encoder side of both shard frames: rows must
// be ordered and fit the 32-bit range fields.
func checkWireRange(row0, row1 int) error {
	if row0 < 0 || row1 < row0 || uint64(row1) > maxWireCount {
		return fmt.Errorf("%w: [%d, %d)", ErrWireRange, row0, row1)
	}
	return nil
}

// isShardWireErr widens isWireErr, the SpV1 helper, to the shard
// frames.
func isShardWireErr(err error) bool {
	return isWireErr(err) || errors.Is(err, ErrWireRange) ||
		errors.Is(err, ErrWireChecksum) || errors.Is(err, ErrWirePanel)
}

// ErrWirePanel marks a panel frame whose width field is unusable: zero
// (a panel that carries nothing may not claim rows), above the
// receiver's cap, or not matching the vector set being encoded.
var ErrWirePanel = errors.New("server: wire: bad panel width")

// checkPanelVecs guards the encoder side of both panel frames: at least
// one vector, every vector the same length, counts within the 32-bit
// frame fields.
func checkPanelVecs(vecs [][]float64, wantLen int) error {
	k := len(vecs)
	if k == 0 {
		return fmt.Errorf("%w: 0 vectors", ErrWirePanel)
	}
	if err := checkWireCount(k); err != nil {
		return err
	}
	for l, v := range vecs {
		if len(v) != wantLen {
			return fmt.Errorf("%w: vector %d has %d elements, want %d", ErrWirePanel, l, len(v), wantLen)
		}
	}
	return checkWireCount(wantLen)
}

// appendPanelElems appends the row-major interleaving of vecs (element
// j*k+l is vecs[l][j]) and returns the extended slice plus the CRC-32C
// of the appended bytes.
func appendPanelElems(dst []byte, vecs [][]float64) ([]byte, uint32) {
	start := len(dst)
	k := len(vecs)
	if k == 1 {
		// The common degenerate layout is a straight vector; skip the
		// strided loop.
		for _, v := range vecs[0] {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	} else {
		n := len(vecs[0])
		for j := 0; j < n; j++ {
			for l := 0; l < k; l++ {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vecs[l][j]))
			}
		}
	}
	return dst, crc32.Checksum(dst[start:], castagnoli)
}

// AppendShardPanel appends the binary panel-request frame for the row
// range [row0, row1) and the k scattered x vectors, returning the
// extended slice. Ranges, widths and counts that do not fit the frame
// fail with typed errors before any bytes are written. With
// preallocated dst capacity the append performs no allocations — the
// coordinator's pooled scatter path depends on that.
func AppendShardPanel(dst []byte, row0, row1 int, xs [][]float64) ([]byte, error) {
	if err := checkWireRange(row0, row1); err != nil {
		return nil, err
	}
	n := 0
	if len(xs) > 0 {
		n = len(xs[0])
	}
	if err := checkPanelVecs(xs, n); err != nil {
		return nil, err
	}
	dst = append(dst, panelReqMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, wireKindF64)
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(row0))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(row1))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	crcAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst, crc := appendPanelElems(dst, xs)
	binary.LittleEndian.PutUint32(dst[crcAt:], crc)
	return dst, nil
}

// EncodeShardPanel returns the binary panel-request frame.
func EncodeShardPanel(row0, row1 int, xs [][]float64) ([]byte, error) {
	n := 0
	if len(xs) > 0 {
		n = len(xs[0])
	}
	return AppendShardPanel(make([]byte, 0, panelReqHeaderLen+8*n*len(xs)), row0, row1, xs)
}

// DecodePanelInto parses a panel-request frame, reusing dst for the
// element storage the way DecodeVectorInto does. maxN caps the declared
// per-vector element count and maxK the declared panel width. The
// returned flat slice holds the k vectors de-interleaved and
// concatenated — vector l is flat[l*n : (l+1)*n] — so callers can view
// it as a [][]float64 without copying again.
func DecodePanelInto(dst []float64, data []byte, maxN, maxK int) (row0, row1, n, k int, flat []float64, err error) {
	if len(data) < panelReqHeaderLen {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: %d header bytes of %d", ErrWireTruncated, len(data), panelReqHeaderLen)
	}
	if [4]byte(data[:4]) != panelReqMagic {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: % x", ErrWireMagic, data[:4])
	}
	if kind := binary.LittleEndian.Uint16(data[4:6]); kind != wireKindF64 {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: kind %d", ErrWireKind, kind)
	}
	if rsv := binary.LittleEndian.Uint16(data[6:8]); rsv != 0 {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: %#04x", ErrWireReserved, rsv)
	}
	r0 := binary.LittleEndian.Uint32(data[8:12])
	r1 := binary.LittleEndian.Uint32(data[12:16])
	if r1 < r0 {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: [%d, %d)", ErrWireRange, r0, r1)
	}
	un := binary.LittleEndian.Uint32(data[16:20])
	if int64(un) > int64(maxN) {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: %d elements > %d", ErrWireTooLarge, un, max(maxN, 0))
	}
	uk := binary.LittleEndian.Uint32(data[20:24])
	if uk == 0 {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: k = 0", ErrWirePanel)
	}
	if int64(uk) > int64(maxK) {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: k = %d > %d", ErrWirePanel, uk, max(maxK, 0))
	}
	want := binary.LittleEndian.Uint32(data[24:28])
	body := data[panelReqHeaderLen:]
	total := uint64(un) * uint64(uk)
	// n and k passed their individual caps, but the product must still
	// fit the host int before it sizes a slice.
	if total > uint64(math.MaxInt)/8 {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: %d elements", ErrWireTooLarge, total)
	}
	if uint64(len(body)) < 8*total {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: %d body bytes for %d elements", ErrWireTruncated, len(body), total)
	}
	if uint64(len(body)) > 8*total {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: %d extra", ErrWireTrailing, uint64(len(body))-8*total)
	}
	if got := crc32.Checksum(body, castagnoli); got != want {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: %08x != %08x", ErrWireChecksum, got, want)
	}
	n, k = int(un), int(uk)
	flat = growVec(dst, n*k)
	deinterleave(flat, body, n, k)
	return int(r0), int(r1), n, k, flat, nil
}

// AppendPartialPanel appends the binary panel-partial frame carrying
// the k result vectors for the global row range [row0, row1); every
// ys[l] must have exactly row1-row0 elements (the range is the row
// count — a partial can never claim rows it does not carry).
func AppendPartialPanel(dst []byte, row0, row1 int, ys [][]float64) ([]byte, error) {
	if err := checkWireRange(row0, row1); err != nil {
		return nil, err
	}
	if err := checkPanelVecs(ys, row1-row0); err != nil {
		return nil, err
	}
	dst = append(dst, panelPartMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, wireKindF64)
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(row0))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(row1))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ys)))
	crcAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst, crc := appendPanelElems(dst, ys)
	binary.LittleEndian.PutUint32(dst[crcAt:], crc)
	return dst, nil
}

// PartialPanelLen returns the exact encoded length of a panel-partial
// frame carrying rows elements per vector across a k-wide panel, so the
// coordinator can bound how many reply bytes it buffers before decoding.
func PartialPanelLen(rows, k int) int { return panelPartHeaderLen + 8*rows*k }

// DecodePartialPanelInto parses a panel-partial frame, reusing dst for
// the element storage. maxRows caps the declared row count and maxK the
// declared width (forged-count allocation guards). The returned flat
// slice holds the k result vectors de-interleaved and concatenated —
// vector l is flat[l*rows : (l+1)*rows].
func DecodePartialPanelInto(dst []float64, data []byte, maxRows, maxK int) (row0, row1, k int, flat []float64, err error) {
	if len(data) < panelPartHeaderLen {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d header bytes of %d", ErrWireTruncated, len(data), panelPartHeaderLen)
	}
	if [4]byte(data[:4]) != panelPartMagic {
		return 0, 0, 0, nil, fmt.Errorf("%w: % x", ErrWireMagic, data[:4])
	}
	if kind := binary.LittleEndian.Uint16(data[4:6]); kind != wireKindF64 {
		return 0, 0, 0, nil, fmt.Errorf("%w: kind %d", ErrWireKind, kind)
	}
	if rsv := binary.LittleEndian.Uint16(data[6:8]); rsv != 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: %#04x", ErrWireReserved, rsv)
	}
	r0 := binary.LittleEndian.Uint32(data[8:12])
	r1 := binary.LittleEndian.Uint32(data[12:16])
	if r1 < r0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: [%d, %d)", ErrWireRange, r0, r1)
	}
	rows := uint64(r1 - r0)
	if rows > uint64(max(maxRows, 0)) {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d rows > %d", ErrWireTooLarge, rows, max(maxRows, 0))
	}
	uk := binary.LittleEndian.Uint32(data[16:20])
	if uk == 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: k = 0", ErrWirePanel)
	}
	if int64(uk) > int64(maxK) {
		return 0, 0, 0, nil, fmt.Errorf("%w: k = %d > %d", ErrWirePanel, uk, max(maxK, 0))
	}
	want := binary.LittleEndian.Uint32(data[20:24])
	body := data[panelPartHeaderLen:]
	total := rows * uint64(uk)
	if total > uint64(math.MaxInt)/8 {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d elements", ErrWireTooLarge, total)
	}
	if uint64(len(body)) < 8*total {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d body bytes for %d elements", ErrWireTruncated, len(body), total)
	}
	if uint64(len(body)) > 8*total {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d extra", ErrWireTrailing, uint64(len(body))-8*total)
	}
	if got := crc32.Checksum(body, castagnoli); got != want {
		return 0, 0, 0, nil, fmt.Errorf("%w: %08x != %08x", ErrWireChecksum, got, want)
	}
	k = int(uk)
	n := int(rows)
	flat = growVec(dst, n*k)
	deinterleave(flat, body, n, k)
	return int(r0), int(r1), k, flat, nil
}

// deinterleave converts the row-major element bytes (element j*k+l) into
// the concatenated-vector layout flat[l*n+j], doing the de-interleave in
// the same pass that converts the little-endian bits.
func deinterleave(flat []float64, body []byte, n, k int) {
	if k == 1 {
		for j := range flat {
			flat[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*j:]))
		}
		return
	}
	at := 0
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			flat[l*n+j] = math.Float64frombits(binary.LittleEndian.Uint64(body[at:]))
			at += 8
		}
	}
}

// PanelVecs views a flat decoded panel (n elements per vector, k
// vectors) as a [][]float64, appending the k sub-slice headers to dst.
// No element data is copied.
func PanelVecs(dst [][]float64, flat []float64, n, k int) [][]float64 {
	for l := 0; l < k; l++ {
		dst = append(dst, flat[l*n:(l+1)*n])
	}
	return dst
}
