package conformance_test

import (
	"reflect"
	"testing"

	"blockspmv/internal/bcsd"
	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/dcsr"
	"blockspmv/internal/formats"
	"blockspmv/internal/multidec"
	"blockspmv/internal/testmat"
	"blockspmv/internal/ubcsr"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

// auditExcluded lists the struct fields that hold allocated arrays which
// are deliberately NOT part of MatrixBytes. Every exclusion needs a
// reason: MatrixBytes feeds the MEM model's working set, so only arrays
// the sequential multiply actually streams belong in it. The map is
// empty: the last carve-out (vbl's rowBlk seed index) was closed when
// 1D-VBL became a modelled candidate and its accounting went exact.
var auditExcluded = map[string]string{}

// allocatedSliceBytes walks a storage struct with reflection and sums the
// backing bytes (len x element size) of every slice field, recursing
// through pointers to component sub-matrices and through slices of
// component instances (a decomposition's parts). This is the ground truth
// MatrixBytes must reproduce arithmetically: if a format adds an array
// the multiply streams without accounting for it, the audit fails.
func allocatedSliceBytes(v reflect.Value, excluded map[string]bool) int64 {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return 0
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return 0
	}
	var total int64
	tp := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice:
			if excluded[tp.Field(i).Name] {
				continue
			}
			switch f.Type().Elem().Kind() {
			case reflect.Func:
				continue // kernel dispatch tables, not matrix data
			case reflect.Interface:
				for j := 0; j < f.Len(); j++ {
					total += allocatedSliceBytes(f.Index(j), excluded)
				}
				continue
			}
			total += int64(f.Len()) * int64(f.Type().Elem().Size())
		case reflect.Pointer:
			total += allocatedSliceBytes(f, excluded)
		}
	}
	return total
}

// TestMatrixBytesMatchesAllocation is the golden byte audit: for every
// format family, MatrixBytes() must equal the bytes actually allocated in
// the instance's slice-backed arrays (modulo the documented exclusions in
// auditExcluded). This pins the MEM model's working-set accounting to the
// real memory layout — a format cannot silently grow an array without
// either accounting for it or documenting why the multiply never touches
// it.
func TestMatrixBytesMatchesAllocation(t *testing.T) {
	excluded := make(map[string]bool, len(auditExcluded))
	for name := range auditExcluded {
		excluded[name] = true
	}
	for name, m := range testmat.Corpus[float64]() {
		insts := []formats.Instance[float64]{
			csr.FromCOO(m, blocks.Scalar),
			csr.NewCompact(m, blocks.Scalar),
			bcsr.New(m, 2, 3, blocks.Scalar),
			bcsr.NewCompact(m, 2, 3, blocks.Scalar),
			bcsr.NewDecomposed(m, 4, 2, blocks.Vector),
			bcsr.NewDecomposedCompact(m, 4, 2, blocks.Vector),
			ubcsr.New(m, 2, 4, blocks.Scalar),
			bcsd.New(m, 4, blocks.Scalar),
			bcsd.NewCompact(m, 4, blocks.Scalar),
			bcsd.NewDecomposed(m, 8, blocks.Scalar),
			bcsd.NewDecomposedCompact(m, 8, blocks.Scalar),
			vbl.New(m, blocks.Scalar),
			vbl.NewDP(m, blocks.Scalar),
			vbr.New(m, blocks.Scalar),
			vbr.NewDP(m, blocks.Scalar),
			csrdu.New(m, blocks.Scalar),
			dcsr.New(m),
			multidec.New(m, 2, 2, 4, blocks.Scalar),
		}
		for _, inst := range insts {
			got := inst.MatrixBytes()
			want := allocatedSliceBytes(reflect.ValueOf(inst), excluded)
			if got != want {
				t.Errorf("%s %s: MatrixBytes() = %d, allocated slice bytes = %d",
					name, inst.Name(), got, want)
			}
		}
	}
}
