package sparse

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRoundTrip feeds arbitrary byte strings interpreted as a dense vector
// plus a reference and checks the full encode→decode cycle is bitwise
// lossless for both constructors and both representations, including the
// payload-exact handling of -0, NaN bit patterns, infinities, and denormals.
// It is the sparse analogue of the libsvm reader's FuzzReadLibSVM.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, true)
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))), false)
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), math.Float64bits(math.Inf(-1))), true)
	seed := make([]byte, 33*8)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, true)

	f.Fuzz(func(t *testing.T, raw []byte, withRef bool) {
		Configure(true)
		defer Configure(false)

		n := len(raw) / 8
		if n > 1<<16 {
			n = 1 << 16
		}
		d := make([]float64, n)
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		// Derive a reference that shares bit patterns with d at every even
		// coordinate, so compression has genuine matches to skip.
		var ref []float64
		if withRef {
			ref = make([]float64, n)
			for i := range ref {
				if i%2 == 0 {
					ref[i] = d[i]
				} else {
					ref[i] = float64(i)
				}
			}
		}

		for _, copying := range []bool{false, true} {
			var e Enc
			if copying {
				e = EncodeCopy(d, ref)
			} else {
				e = EncodeShared(d, ref)
			}
			if e.Len() != n {
				t.Fatalf("Len = %d, want %d", e.Len(), n)
			}
			if e.IsSparse() {
				v := e.sv
				if !v.valid() {
					t.Fatalf("invalid sparse Vec: %d entries over %d", v.NNZ(), v.Len)
				}
				if !SparseWins(n, v.NNZ()) {
					t.Fatalf("sparse chosen against the switch: n=%d nnz=%d", n, v.NNZ())
				}
				if e.WireBytes() != float64(v.NNZ())*EntryBytes {
					t.Fatalf("sparse WireBytes %v, want %v", e.WireBytes(), float64(v.NNZ())*EntryBytes)
				}
			} else if e.WireBytes() != float64(n)*DenseCoordBytes {
				t.Fatalf("dense WireBytes %v, want %v", e.WireBytes(), float64(n)*DenseCoordBytes)
			}
			if e.WireBytes() > e.DenseBytes() {
				t.Fatalf("encoding larger than dense: %v > %v", e.WireBytes(), e.DenseBytes())
			}

			scratch := make([]float64, n)
			for i := range scratch {
				scratch[i] = math.E // garbage Decoded must overwrite
			}
			got := e.Decoded(scratch, ref)
			dst := make([]float64, n)
			for i := range dst {
				dst[i] = math.Pi // garbage DecodeInto must overwrite
			}
			e.DecodeInto(dst, ref)
			for i := range d {
				want := math.Float64bits(d[i])
				if math.Float64bits(got[i]) != want {
					t.Fatalf("Decoded bit drift at %d: %x != %x", i, math.Float64bits(got[i]), want)
				}
				if math.Float64bits(dst[i]) != want {
					t.Fatalf("DecodeInto bit drift at %d: %x != %x", i, math.Float64bits(dst[i]), want)
				}
			}
		}
	})
}
