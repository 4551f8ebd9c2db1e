package mpi

import (
	"encoding/binary"
	"math"
	"slices"
)

// ReduceOp combines src into dst elementwise over raw little-endian bytes.
// All provided ops are associative and commutative.
//
// The 8-byte ops reduce the whole words both slices have in common —
// min(len(dst), len(src)) rounded down to a multiple of 8 — and leave every
// byte of dst past that untouched. dst and src may be the same slice; they
// must not overlap in any other way. Values pass through bit for bit (zeros,
// infinities, subnormals, a NaN's payload); only when SumFloat64 adds two
// NaNs is it the hardware, and the operand order the compiler picked, that
// decides whose payload the result carries.
type ReduceOp func(dst, src []byte)

// Every op is a one-word function, inlined four times into a kernel of one
// shape: clamp both slices once, walk 32 bytes per iteration through windows
// of constant length and capacity, so each le.Uint64/PutUint64 compiles to a
// single move with no bounds check, then finish word by word. The loop
// conditions test both lengths, though clamping made them equal, because that
// is what lets the compiler drop the checks on src. The word functions call
// encoding/binary and math directly, not through helpers of their own: a
// second level of inlining costs a real NOP per call in the loop body.

var le = binary.LittleEndian

// words clamps dst and src to the whole 8-byte words they have in common.
func words(dst, src []byte) ([]byte, []byte) {
	n := min(len(dst), len(src)) &^ 7
	return dst[:n], src[:n]
}

func sumFloat64(d, s []byte) {
	le.PutUint64(d, math.Float64bits(math.Float64frombits(le.Uint64(d))+math.Float64frombits(le.Uint64(s))))
}

// The min/max words select and always store rather than branch around the
// store: the compiler turns the select into a conditional move, which costs
// the same on any data, where a branch on freshly received values is a coin
// toss (at 256 KiB a branching loop runs at a sixth of the speed).

// maxFloat64 keeps d unless s compares greater, so a NaN on either side
// keeps d.
func maxFloat64(d, s []byte) {
	a, b := le.Uint64(d), le.Uint64(s)
	if math.Float64frombits(b) > math.Float64frombits(a) {
		a = b
	}
	le.PutUint64(d, a)
}

func sumInt64(d, s []byte) { le.PutUint64(d, le.Uint64(d)+le.Uint64(s)) }

func minInt64(d, s []byte) {
	a, b := le.Uint64(d), le.Uint64(s)
	if int64(b) < int64(a) {
		a = b
	}
	le.PutUint64(d, a)
}

func maxInt64(d, s []byte) {
	a, b := le.Uint64(d), le.Uint64(s)
	if int64(b) > int64(a) {
		a = b
	}
	le.PutUint64(d, a)
}

func orWord(d, s []byte) { le.PutUint64(d, le.Uint64(d)|le.Uint64(s)) }

// SumFloat64 adds float64 vectors.
func SumFloat64(dst, src []byte) {
	dst, src = words(dst, src)
	for len(dst) >= 32 && len(src) >= 32 {
		d, s := dst[:32:32], src[:32:32]
		sumFloat64(d[0:8], s[0:8])
		sumFloat64(d[8:16], s[8:16])
		sumFloat64(d[16:24], s[16:24])
		sumFloat64(d[24:32], s[24:32])
		dst, src = dst[32:], src[32:]
	}
	for len(dst) >= 8 && len(src) >= 8 {
		sumFloat64(dst[:8], src[:8])
		dst, src = dst[8:], src[8:]
	}
}

// MaxFloat64 takes the elementwise maximum of float64 vectors.
func MaxFloat64(dst, src []byte) {
	dst, src = words(dst, src)
	for len(dst) >= 32 && len(src) >= 32 {
		d, s := dst[:32:32], src[:32:32]
		maxFloat64(d[0:8], s[0:8])
		maxFloat64(d[8:16], s[8:16])
		maxFloat64(d[16:24], s[16:24])
		maxFloat64(d[24:32], s[24:32])
		dst, src = dst[32:], src[32:]
	}
	for len(dst) >= 8 && len(src) >= 8 {
		maxFloat64(dst[:8], src[:8])
		dst, src = dst[8:], src[8:]
	}
}

// SumInt64 adds int64 vectors.
func SumInt64(dst, src []byte) {
	dst, src = words(dst, src)
	for len(dst) >= 32 && len(src) >= 32 {
		d, s := dst[:32:32], src[:32:32]
		sumInt64(d[0:8], s[0:8])
		sumInt64(d[8:16], s[8:16])
		sumInt64(d[16:24], s[16:24])
		sumInt64(d[24:32], s[24:32])
		dst, src = dst[32:], src[32:]
	}
	for len(dst) >= 8 && len(src) >= 8 {
		sumInt64(dst[:8], src[:8])
		dst, src = dst[8:], src[8:]
	}
}

// MinInt64 takes the elementwise minimum of int64 vectors.
func MinInt64(dst, src []byte) {
	dst, src = words(dst, src)
	for len(dst) >= 32 && len(src) >= 32 {
		d, s := dst[:32:32], src[:32:32]
		minInt64(d[0:8], s[0:8])
		minInt64(d[8:16], s[8:16])
		minInt64(d[16:24], s[16:24])
		minInt64(d[24:32], s[24:32])
		dst, src = dst[32:], src[32:]
	}
	for len(dst) >= 8 && len(src) >= 8 {
		minInt64(dst[:8], src[:8])
		dst, src = dst[8:], src[8:]
	}
}

// MaxInt64 takes the elementwise maximum of int64 vectors.
func MaxInt64(dst, src []byte) {
	dst, src = words(dst, src)
	for len(dst) >= 32 && len(src) >= 32 {
		d, s := dst[:32:32], src[:32:32]
		maxInt64(d[0:8], s[0:8])
		maxInt64(d[8:16], s[8:16])
		maxInt64(d[16:24], s[16:24])
		maxInt64(d[24:32], s[24:32])
		dst, src = dst[32:], src[32:]
	}
	for len(dst) >= 8 && len(src) >= 8 {
		maxInt64(dst[:8], src[:8])
		dst, src = dst[8:], src[8:]
	}
}

// BOr is bitwise OR over raw bytes: eight at a time, then the odd bytes.
func BOr(dst, src []byte) {
	n := min(len(dst), len(src))
	dst, src = dst[:n], src[:n]
	for len(dst) >= 32 && len(src) >= 32 {
		d, s := dst[:32:32], src[:32:32]
		orWord(d[0:8], s[0:8])
		orWord(d[8:16], s[8:16])
		orWord(d[16:24], s[16:24])
		orWord(d[24:32], s[24:32])
		dst, src = dst[32:], src[32:]
	}
	for len(dst) >= 8 && len(src) >= 8 {
		orWord(dst[:8], src[:8])
		dst, src = dst[8:], src[8:]
	}
	for i := 0; i < len(dst) && i < len(src); i++ {
		dst[i] |= src[i]
	}
}

// AppendFloat64s appends the little-endian encoding of vals to dst and
// returns the extended slice. It allocates only when dst lacks the capacity,
// so a caller that keeps the result across rounds encodes into the same bytes.
func AppendFloat64s(dst []byte, vals []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(vals))[:n+8*len(vals)]
	out := dst[n:]
	for len(vals) >= 4 && len(out) >= 32 {
		v, o := vals[:4:4], out[:32:32]
		le.PutUint64(o[0:8], math.Float64bits(v[0]))
		le.PutUint64(o[8:16], math.Float64bits(v[1]))
		le.PutUint64(o[16:24], math.Float64bits(v[2]))
		le.PutUint64(o[24:32], math.Float64bits(v[3]))
		vals, out = vals[4:], out[32:]
	}
	for len(vals) >= 1 && len(out) >= 8 {
		le.PutUint64(out[:8], math.Float64bits(vals[0]))
		vals, out = vals[1:], out[8:]
	}
	return dst
}

// AppendInt64s is AppendFloat64s for int64 vectors.
func AppendInt64s(dst []byte, vals []int64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(vals))[:n+8*len(vals)]
	out := dst[n:]
	for len(vals) >= 4 && len(out) >= 32 {
		v, o := vals[:4:4], out[:32:32]
		le.PutUint64(o[0:8], uint64(v[0]))
		le.PutUint64(o[8:16], uint64(v[1]))
		le.PutUint64(o[16:24], uint64(v[2]))
		le.PutUint64(o[24:32], uint64(v[3]))
		vals, out = vals[4:], out[32:]
	}
	for len(vals) >= 1 && len(out) >= 8 {
		le.PutUint64(out[:8], uint64(vals[0]))
		vals, out = vals[1:], out[8:]
	}
	return dst
}

// DecodeFloat64sInto appends the len(b)/8 little-endian float64s of b to dst
// and returns the extended slice; bytes past the last whole word are ignored.
// It allocates only when dst lacks the capacity: DecodeFloat64sInto(v[:0], b)
// decodes into v's storage.
func DecodeFloat64sInto(dst []float64, b []byte) []float64 {
	n, k := len(dst), len(b)/8
	dst = slices.Grow(dst, k)[:n+k]
	out := dst[n:]
	for len(out) >= 4 && len(b) >= 32 {
		o, w := out[:4:4], b[:32:32]
		o[0] = math.Float64frombits(le.Uint64(w[0:8]))
		o[1] = math.Float64frombits(le.Uint64(w[8:16]))
		o[2] = math.Float64frombits(le.Uint64(w[16:24]))
		o[3] = math.Float64frombits(le.Uint64(w[24:32]))
		out, b = out[4:], b[32:]
	}
	for len(out) >= 1 && len(b) >= 8 {
		out[0] = math.Float64frombits(le.Uint64(b[:8]))
		out, b = out[1:], b[8:]
	}
	return dst
}

// DecodeInt64sInto is DecodeFloat64sInto for int64 vectors.
func DecodeInt64sInto(dst []int64, b []byte) []int64 {
	n, k := len(dst), len(b)/8
	dst = slices.Grow(dst, k)[:n+k]
	out := dst[n:]
	for len(out) >= 4 && len(b) >= 32 {
		o, w := out[:4:4], b[:32:32]
		o[0] = int64(le.Uint64(w[0:8]))
		o[1] = int64(le.Uint64(w[8:16]))
		o[2] = int64(le.Uint64(w[16:24]))
		o[3] = int64(le.Uint64(w[24:32]))
		out, b = out[4:], b[32:]
	}
	for len(out) >= 1 && len(b) >= 8 {
		out[0] = int64(le.Uint64(b[:8]))
		out, b = out[1:], b[8:]
	}
	return dst
}

// EncodeFloat64s serializes vals little-endian into a new slice.
func EncodeFloat64s(vals []float64) []byte {
	return AppendFloat64s(make([]byte, 0, 8*len(vals)), vals)
}

// DecodeFloat64s deserializes little-endian float64s into a new slice.
func DecodeFloat64s(b []byte) []float64 {
	return DecodeFloat64sInto(make([]float64, 0, len(b)/8), b)
}

// EncodeInt64s serializes vals little-endian into a new slice.
func EncodeInt64s(vals []int64) []byte {
	return AppendInt64s(make([]byte, 0, 8*len(vals)), vals)
}

// DecodeInt64s deserializes little-endian int64s into a new slice.
func DecodeInt64s(b []byte) []int64 {
	return DecodeInt64sInto(make([]int64, 0, len(b)/8), b)
}

// AllreduceFloat64 reduces one float64 across the world.
func (r *Rank) AllreduceFloat64(v float64, op ReduceOp) float64 {
	var w [8]byte
	le.PutUint64(w[:], math.Float64bits(v))
	r.Allreduce(w[:], op)
	return math.Float64frombits(le.Uint64(w[:]))
}

// AllreduceInt64 reduces one int64 across the world.
func (r *Rank) AllreduceInt64(v int64, op ReduceOp) int64 {
	var w [8]byte
	le.PutUint64(w[:], uint64(v))
	r.Allreduce(w[:], op)
	return int64(le.Uint64(w[:]))
}
