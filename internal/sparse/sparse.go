// Package sparse implements SparCML-style sparse index–value encoding for
// model-delta communication (Renggli et al., "SparCML: High-Performance
// Sparse Communication for Machine Learning"). The paper's public datasets
// (avazu, url, kddb, kdd12) are extremely sparse, so the vectors the
// trainers exchange — gradient sums with mini-batch support, local models
// that differ from the last synchronized model only at touched coordinates —
// are mostly redundant when shipped densely. This package provides the
// encoding; the communication stack (internal/allreduce, engine's
// treeAggregate) decides per message whether to use it.
//
// # Encoding
//
// A sparse payload is a sorted index–value list: 4 bytes of index plus 8
// bytes of value per entry (EntryBytes = 12), versus DenseCoordBytes = 8 per
// coordinate of a dense vector. Following SparCML's adaptive representation,
// a message is encoded sparsely only when that is actually smaller:
// 12·nnz < 8·n (see SparseWins). Everything denser ships as a plain dense
// vector, so enabling the switch can never increase simulated traffic.
//
// # Bit-identity
//
// The encoder ships overlays, not arithmetic differences: the entries of a
// delta are the coordinates whose IEEE-754 bit patterns differ from a
// reference vector both endpoints hold (the last synchronized model, or the
// zero vector when ref is nil), carrying the sender's new values verbatim.
// The receiver reconstructs by copying the reference and overwriting the
// listed coordinates, which is exact — unlike value differences, whose
// (d−r)+r round trip rounds. Decoded vectors are bitwise equal to what the
// dense path would have shipped, and every fold then runs the unchanged
// dense kernels, so training results are bit-identical with the switch on or
// off; only message sizes (and therefore simulated time) change. Comparing
// bit patterns rather than values also keeps -0 and NaN payload-exact, and
// is the reason the nil-reference form skips only exact +0 coordinates.
//
// The package-level switch (Configure/Enabled) defaults to off, so the
// dense path — byte-identical to the stack before this package existed — is
// what runs unless a caller opts in (the -sparse CLI flag).
package sparse

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Wire sizes in bytes. A sparse entry is a 4-byte coordinate index plus an
// 8-byte float64 value; a dense coordinate is the bare float64.
const (
	IndexBytes      = 4
	ValueBytes      = 8
	EntryBytes      = IndexBytes + ValueBytes
	DenseCoordBytes = 8
)

// enabled is the process-wide switch, off by default. Like par.Configure it
// is read on hot paths through an atomic so tests can toggle it.
var enabled atomic.Bool

// Configure turns sparse encoding on or off for subsequent collectives.
// Results are bit-identical either way; only simulated message sizes (and
// therefore virtual time) change.
func Configure(on bool) { enabled.Store(on) }

// Enabled reports whether sparse encoding is active.
func Enabled() bool { return enabled.Load() }

// SparseWins reports the SparCML density switch: whether nnz index–value
// entries encode strictly smaller than n dense coordinates, i.e.
// EntryBytes·nnz < DenseCoordBytes·n. At the boundary (12·nnz == 8·n) the
// dense form wins: equal size, no decode step.
func SparseWins(n, nnz int) bool {
	return EntryBytes*nnz < DenseCoordBytes*n
}

// Vec is a sparse view of a dense vector of length Len: Val[i] lives at
// coordinate Ind[i]. Indices are sorted ascending and unique, so kernels
// that walk the entries visit coordinates in the same order a dense loop
// would.
type Vec struct {
	Len int
	Ind []int32
	Val []float64
}

// NNZ returns the number of stored entries.
func (v Vec) NNZ() int { return len(v.Ind) }

// WireBytes returns the encoded size of the entry list.
func (v Vec) WireBytes() float64 { return float64(len(v.Ind)) * EntryBytes }

// AddInto accumulates dst[Ind[i]] += s·Val[i] in ascending index order.
// Exactness contract: for the touched coordinates this performs the same
// IEEE-754 operations, in the same order, as vec.AddScaled(dst, dense, s)
// would — but it is NOT bitwise interchangeable with the dense kernel on the
// untouched coordinates: dense addition of an exact +0 entry can still flip
// a -0 in dst to +0, which a sparse skip preserves. Callers that require
// bit-identity with a dense fold must decode first (Overlay) and fold
// densely; that is what the communication stack does.
func (v Vec) AddInto(dst []float64, s float64) {
	if v.Len != len(dst) {
		panic(fmt.Sprintf("sparse: AddInto length %d into %d", v.Len, len(dst)))
	}
	for i, ix := range v.Ind {
		dst[ix] += s * v.Val[i]
	}
}

// Scale multiplies every stored value by s, in place. Entries are not
// re-compacted: a value that becomes zero stays an explicit entry, keeping
// the operation exact under the overlay semantics.
func (v Vec) Scale(s float64) {
	for i := range v.Val {
		v.Val[i] *= s
	}
}

// Overlay reconstructs the encoded dense vector into dst: dst is first set
// to ref (or to zeros when ref is nil), then the stored entries overwrite
// their coordinates. The result is bitwise equal to the vector that was
// compressed.
func (v Vec) Overlay(dst, ref []float64) {
	if len(dst) != v.Len {
		panic(fmt.Sprintf("sparse: Overlay into %d, want %d", len(dst), v.Len))
	}
	if ref == nil {
		clear(dst)
	} else {
		if len(ref) != v.Len {
			panic(fmt.Sprintf("sparse: Overlay ref %d, want %d", len(ref), v.Len))
		}
		copy(dst, ref)
	}
	for i, ix := range v.Ind {
		dst[ix] = v.Val[i]
	}
}

// CountDelta returns the number of coordinates whose bit patterns differ
// between d and ref (ref nil = the zero vector, under which -0 and NaN
// count as differences and only exact +0 is skipped).
func CountDelta(d, ref []float64) int {
	nnz := 0
	if ref == nil {
		for _, x := range d {
			if math.Float64bits(x) != 0 {
				nnz++
			}
		}
		return nnz
	}
	if len(ref) != len(d) {
		panic(fmt.Sprintf("sparse: CountDelta ref %d, want %d", len(ref), len(d)))
	}
	for j, x := range d {
		if math.Float64bits(x) != math.Float64bits(ref[j]) {
			nnz++
		}
	}
	return nnz
}

// Compress builds the sparse overlay of d relative to ref: the coordinates
// whose bit patterns differ, with d's values verbatim. Overlay(dst, ref) on
// the result reproduces d bitwise.
func Compress(d, ref []float64) Vec {
	return compress(d, ref, CountDelta(d, ref))
}

// compress is Compress for a caller that has already counted: nnz must be
// CountDelta(d, ref), which has also checked ref's length.
func compress(d, ref []float64, nnz int) Vec {
	v := Vec{Len: len(d), Ind: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}
	if ref == nil {
		for j, x := range d {
			if math.Float64bits(x) != 0 {
				v.Ind = append(v.Ind, int32(j))
				v.Val = append(v.Val, x)
			}
		}
		return v
	}
	for j, x := range d {
		if math.Float64bits(x) != math.Float64bits(ref[j]) {
			v.Ind = append(v.Ind, int32(j))
			v.Val = append(v.Val, x)
		}
	}
	return v
}

// WireBytesFor returns the simulated wire size shipping d relative to ref
// would cost under the current switch — EntryBytes·nnz when the sparse form
// wins, DenseCoordBytes·len(d) otherwise — without building an encoding.
// The communication stack uses it to charge encoded bytes on legs whose
// payload stays a dense Go slice (stage results, task-descriptor model
// broadcasts): the receiver holds ref, so the delta-coded message is
// decodable there; only the charged bytes model the compression.
func WireBytesFor(d, ref []float64) float64 {
	if Enabled() {
		if nnz := CountDelta(d, ref); SparseWins(len(d), nnz) {
			return float64(nnz) * EntryBytes
		}
	}
	return float64(len(d)) * DenseCoordBytes
}

// Enc is an encoded vector in flight: either a dense []float64 or a sparse
// overlay, chosen by Encode*'s density switch. Like every message payload in
// the simulation it is shared between sender and receiver and must be
// treated as immutable.
type Enc struct {
	n      int
	sparse bool
	sv     Vec       // sparse form, set when sparse
	dense  []float64 // dense form, set when !sparse
	refLen int       // length of the reference the sparse form was built against; -1 = nil ref
}

// EncodeShared encodes d (length n) relative to ref for transmission. The
// dense branch references d directly — the caller must not mutate d after
// handing the encoding to Send (the usual shared-payload contract). ref nil
// encodes relative to the zero vector. Sparse form is chosen only when the
// package switch is on and SparseWins; otherwise the encoding is the dense
// vector, byte-for-byte what the pre-sparse stack shipped.
func EncodeShared(d, ref []float64) Enc {
	if !Enabled() {
		return Enc{n: len(d), dense: d}
	}
	nnz := CountDelta(d, ref)
	if !SparseWins(len(d), nnz) {
		return Enc{n: len(d), dense: d}
	}
	refLen := -1
	if ref != nil {
		refLen = len(ref)
	}
	return Enc{n: len(d), sparse: true, sv: compress(d, ref, nnz), refLen: refLen}
}

// EncodeCopy is EncodeShared for senders that go on mutating d: the dense
// branch copies d first. The sparse branch is independent of d by
// construction.
func EncodeCopy(d, ref []float64) Enc {
	if !Enabled() {
		return Enc{n: len(d), dense: append([]float64(nil), d...)}
	}
	e := EncodeShared(d, ref)
	if e.dense != nil {
		e.dense = append([]float64(nil), e.dense...)
	}
	return e
}

// IsSparse reports whether the sparse form was chosen.
func (e Enc) IsSparse() bool { return e.sparse }

// Len returns the dense length of the encoded vector.
func (e Enc) Len() int { return e.n }

// WireBytes returns the simulated size of this encoding: EntryBytes·nnz for
// the sparse form, DenseCoordBytes·n for the dense form. This is the value
// the communication stack charges to the network, which is how the sparse
// optimization becomes visible in virtual time.
func (e Enc) WireBytes() float64 {
	if e.IsSparse() {
		return e.sv.WireBytes()
	}
	return float64(e.n) * DenseCoordBytes
}

// DenseBytes returns the size the same vector would occupy densely — the
// counterfactual against which the sparse saving is measured.
func (e Enc) DenseBytes() float64 { return float64(e.n) * DenseCoordBytes }

// checkRef panics when a sparse encoding is decoded against a different
// reference shape than it was built with — the two endpoints of a delta
// exchange must agree on the reference.
func (e Enc) checkRef(ref []float64) {
	refLen := -1
	if ref != nil {
		refLen = len(ref)
	}
	if refLen != e.refLen {
		panic(fmt.Sprintf("sparse: decode ref length %d, encoded against %d", refLen, e.refLen))
	}
}

// Dense returns the vector a dense-form encoding ships — zero copy, shared
// with the sender, so treat it as immutable unless the sender handed it over
// — and nil for a sparse-form encoding, which carries no dense vector. A
// receiver that recycles the buffers it is handed Puts the result
// unconditionally (vec.Pool.Put ignores nil).
func (e Enc) Dense() []float64 { return e.dense }

// Decoded returns the encoded vector for reading, bitwise equal to the
// original, without allocating: the dense form as is (see Dense), the sparse
// form overlaid onto ref in scratch, which must have length Len and is the
// caller's. A fold decodes all its sparse chunks through one scratch; it may
// pass nil when every chunk is dense. ref must be the reference the sender
// encoded against.
func (e Enc) Decoded(scratch, ref []float64) []float64 {
	if !e.IsSparse() {
		return e.dense
	}
	e.DecodeInto(scratch, ref)
	return scratch
}

// Slice restricts the encoding to the coordinate window [lo, hi) of the
// encoded vector, inheriting the parent's dense/sparse choice instead of
// re-deciding it. That inheritance is what the pipelined collectives in
// internal/allreduce rely on for byte-accounting invariance: the C chunk
// messages a partition is split into charge exactly what the one unchunked
// message would have — the dense form's 8·len splits as 8·chunkLen, and the
// sparse form's 12·nnz entries partition by window — so chunking changes
// message count and timing but never total bytes. Values are shared with
// the parent; sparse indices are rebased to the window, and a sparse slice
// decodes against the matching window of the parent's reference.
func (e Enc) Slice(lo, hi int) Enc {
	if lo < 0 || hi < lo || hi > e.n {
		panic(fmt.Sprintf("sparse: Slice [%d,%d) of %d", lo, hi, e.n))
	}
	if !e.sparse {
		return Enc{n: hi - lo, dense: e.dense[lo:hi]}
	}
	a := sort.Search(len(e.sv.Ind), func(i int) bool { return e.sv.Ind[i] >= int32(lo) })
	b := sort.Search(len(e.sv.Ind), func(i int) bool { return e.sv.Ind[i] >= int32(hi) })
	ind := make([]int32, b-a)
	for i := range ind {
		ind[i] = e.sv.Ind[a+i] - int32(lo)
	}
	refLen := e.refLen
	if refLen >= 0 {
		refLen = hi - lo
	}
	return Enc{n: hi - lo, sparse: true, sv: Vec{Len: hi - lo, Ind: ind, Val: e.sv.Val[a:b]}, refLen: refLen}
}

// DecodeInto reconstructs the original vector into dst (length n), bitwise.
// Unlike Decoded it always writes dst, so the caller owns the result.
func (e Enc) DecodeInto(dst, ref []float64) {
	if !e.IsSparse() {
		if len(dst) != e.n {
			panic(fmt.Sprintf("sparse: DecodeInto %d, want %d", len(dst), e.n))
		}
		copy(dst, e.dense)
		return
	}
	e.checkRef(ref)
	e.sv.Overlay(dst, ref)
}

// valid verifies the Vec invariants: ascending unique indices, all in range.
func (v Vec) valid() bool {
	if len(v.Ind) != len(v.Val) {
		return false
	}
	if !sort.SliceIsSorted(v.Ind, func(a, b int) bool { return v.Ind[a] < v.Ind[b] }) {
		return false
	}
	for i, ix := range v.Ind {
		if ix < 0 || int(ix) >= v.Len {
			return false
		}
		if i > 0 && v.Ind[i-1] == ix {
			return false
		}
	}
	return true
}
