package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// The per-element loops datatype.go had before its word-wise kernels, kept
// verbatim as oracles: the differential tests, both fuzz targets and the
// `ref` sub-benchmarks in bench_test.go all measure the kernels against them.

func refSumFloat64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		d := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		s := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(d+s))
	}
}

func refMaxFloat64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		d := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		s := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		if s > d {
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(s))
		}
	}
}

func refSumInt64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		d := int64(binary.LittleEndian.Uint64(dst[i:]))
		s := int64(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], uint64(d+s))
	}
}

func refMinInt64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		d := int64(binary.LittleEndian.Uint64(dst[i:]))
		s := int64(binary.LittleEndian.Uint64(src[i:]))
		if s < d {
			binary.LittleEndian.PutUint64(dst[i:], uint64(s))
		}
	}
}

func refMaxInt64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		d := int64(binary.LittleEndian.Uint64(dst[i:]))
		s := int64(binary.LittleEndian.Uint64(src[i:]))
		if s > d {
			binary.LittleEndian.PutUint64(dst[i:], uint64(s))
		}
	}
}

func refBOr(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] |= src[i]
	}
}

func refEncodeFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func refDecodeFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func refEncodeInt64s(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

func refDecodeInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// reduceOps pairs every kernel with its oracle, in the order the fuzz target
// indexes them.
var reduceOps = []struct {
	name    string
	op, ref ReduceOp
}{
	{"SumFloat64", SumFloat64, refSumFloat64},
	{"MaxFloat64", MaxFloat64, refMaxFloat64},
	{"SumInt64", SumInt64, refSumInt64},
	{"MinInt64", MinInt64, refMinInt64},
	{"MaxInt64", MaxInt64, refMaxInt64},
	{"BOr", BOr, refBOr},
}

// edgeWords are the float bit patterns a reduction must carry bit for bit —
// quiet and signalling NaNs with payloads, both zeros, both infinities,
// subnormals, the extremes — which as int64s are also the sign and overflow
// edges of the integer ops.
var edgeWords = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // -0, MinInt64
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x7ff8000000000001, // quiet NaN, payload 1
	0xfff8dead0000beef, // negative quiet NaN, payload
	0x7ff0000000000001, // signalling NaN
	0x7ff4000000c0ffee, // signalling NaN, payload
	0x0000000000000001, // smallest subnormal
	0x800fffffffffffff, // largest negative subnormal
	0x0010000000000000, // smallest normal
	0x7fefffffffffffff, // MaxFloat64
	0xffefffffffffffff, // -MaxFloat64
	0x7fffffffffffffff, // MaxInt64 (a NaN)
	0xffffffffffffffff, // -1 (a NaN)
	0x3ff0000000000000, // 1.0
	0xbff0000000000000, // -1.0
}

// fillWords fills b with a seeded mix of random bytes and edge words (at
// b's own 8-byte grid, which is where a kernel starting at b reads them).
func fillWords(rng *rand.Rand, b []byte) {
	rng.Read(b)
	for i := 0; i+8 <= len(b); i += 8 {
		if rng.Intn(3) == 0 {
			binary.LittleEndian.PutUint64(b[i:], edgeWords[rng.Intn(len(edgeWords))])
		}
	}
}

// checkReduce runs op and ref on copies of the same (dst, src) carved at the
// given offsets out of larger arrays and requires every byte of both arrays —
// the reduced prefix, the bytes past the last whole word, and the guard bytes
// around the slices — to agree; src must come back unchanged.
func checkReduce(t testing.TB, name string, op, ref ReduceOp, rng *rand.Rand, dlen, slen, doff, soff int) {
	t.Helper()
	const guard = 8
	dArr := make([]byte, doff+dlen+guard)
	sArr := make([]byte, soff+slen+guard)
	fillWords(rng, dArr[doff:])
	fillWords(rng, sArr[soff:])
	rng.Read(dArr[:doff])
	rng.Read(sArr[:soff])
	dWant, sWant := bytes.Clone(dArr), bytes.Clone(sArr)
	d0 := bytes.Clone(dArr[doff : doff+dlen])

	op(dArr[doff:doff+dlen], sArr[soff:soff+slen])
	ref(dWant[doff:doff+dlen], sWant[soff:soff+slen])
	if !bytes.Equal(dArr[:doff], dWant[:doff]) || !bytes.Equal(dArr[doff+dlen:], dWant[doff+dlen:]) {
		t.Fatalf("%s dst len %d (offset %d) src len %d (offset %d): wrote outside dst", name, dlen, doff, slen, soff)
	}
	if i := firstDiff(name, dArr[doff:doff+dlen], dWant[doff:doff+dlen], d0, sWant[soff:soff+slen]); i >= 0 {
		t.Fatalf("%s dst len %d (offset %d) src len %d (offset %d): dst differs from the reference at byte %d",
			name, dlen, doff, slen, soff, i)
	}
	if !bytes.Equal(sArr, sWant) {
		t.Fatalf("%s dst len %d src len %d: src was modified", name, dlen, slen)
	}
}

// firstDiff returns the first byte at which got departs from want, or -1.
// One departure is allowed, because the oracle does not pin it either: when
// SumFloat64 adds two NaNs, IEEE 754 lets either operand's payload survive,
// amd64 keeps the instruction's first operand, and which of d+s the compiler
// puts first varies from one loop shape (and one unrolled lane) to the next.
// There got may be either input, quieted; d0 and s0 are the words that went
// in. Everything else — one NaN, infinities, zeros, subnormals — is exact.
func firstDiff(name string, got, want, d0, s0 []byte) int {
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		if name == "SumFloat64" {
			// d0 and s0 start at a word boundary of the op; got and want are
			// the same bytes as d0 after the op.
			if w := i &^ 7; w+8 <= len(d0) && w+8 <= len(s0) {
				const quiet = 1 << 51
				d, s, g := binary.LittleEndian.Uint64(d0[w:]), binary.LittleEndian.Uint64(s0[w:]), binary.LittleEndian.Uint64(got[w:])
				if isNaNBits(d) && isNaNBits(s) && (g == d|quiet || g == s|quiet) {
					continue
				}
			}
		}
		return i
	}
	return -1
}

func isNaNBits(w uint64) bool { return w&^(1<<63) > 0x7ff0000000000000 }

// testLens is every length 0..67 (all residues of the 32-byte body and the
// 8-byte tail, twice over) plus a round and a ragged large one.
func testLens() []int {
	lens := make([]int, 0, 70)
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	return append(lens, 1024, 4099)
}

func TestReduceOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, o := range reduceOps {
		for _, n := range testLens() {
			// Equal lengths at every misalignment of either side.
			for off := 0; off < 8; off++ {
				checkReduce(t, o.name, o.op, o.ref, rng, n, n, off, 0)
				checkReduce(t, o.name, o.op, o.ref, rng, n, n, 0, off)
				checkReduce(t, o.name, o.op, o.ref, rng, n, n, off, 7-off)
			}
			// len(dst) != len(src), both ways, by less and by more than a word
			// and a block.
			for _, m := range []int{0, 1, 7, 8, 9, 31, 33, 40} {
				checkReduce(t, o.name, o.op, o.ref, rng, n, n+m, 3, 5)
				checkReduce(t, o.name, o.op, o.ref, rng, n+m, n, 5, 3)
			}
		}
	}
}

// TestReduceOpsExactAlias: op(b, b) is the one overlap the kernels promise
// (a shifted overlap is not: they load a block before storing it).
func TestReduceOpsExactAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, o := range reduceOps {
		for _, n := range testLens() {
			for off := 0; off < 8; off++ {
				arr := make([]byte, off+n+8)
				fillWords(rng, arr[off:])
				want := bytes.Clone(arr)
				o.op(arr[off:off+n], arr[off:off+n])
				o.ref(want[off:off+n], want[off:off+n])
				// No tolerance needed: NaN + the same NaN has one answer.
				if !bytes.Equal(arr, want) {
					t.Fatalf("%s(b, b) len %d offset %d: differs from the reference", o.name, n, off)
				}
			}
		}
	}
}

// TestReduceOpsEdgePatterns crosses every edge word with every other, in
// every lane of the unrolled body and in the tail, so each special value
// meets each special value under each op.
func TestReduceOpsEdgePatterns(t *testing.T) {
	const lanes = 7 // 4 in the 32-byte body + 3 in the word tail
	for _, o := range reduceOps {
		for _, dw := range edgeWords {
			for _, sw := range edgeWords {
				dst, src := make([]byte, 8*lanes+3), make([]byte, 8*lanes+3)
				for l := 0; l < lanes; l++ {
					binary.LittleEndian.PutUint64(dst[8*l:], dw)
					binary.LittleEndian.PutUint64(src[8*l:], sw)
				}
				d0, want := bytes.Clone(dst), bytes.Clone(dst)
				o.op(dst, src)
				o.ref(want, src)
				if firstDiff(o.name, dst, want, d0, src) >= 0 {
					t.Fatalf("%s(%#016x, %#016x): got %x want %x", o.name, dw, sw, dst, want)
				}
			}
		}
	}
}

// TestMaxFloat64KeepsNaNBehaviour pins the `s > d` rule: a NaN never
// compares greater, so a NaN in dst stays and a NaN in src is ignored.
func TestMaxFloat64KeepsNaNBehaviour(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000abc)
	dst := EncodeFloat64s([]float64{nan, 1, math.Inf(-1), math.Copysign(0, -1), 2, nan})
	src := EncodeFloat64s([]float64{5, nan, nan, 0, 3, nan})
	MaxFloat64(dst, src)
	got := DecodeFloat64s(dst)
	for i, want := range []uint64{
		0x7ff8000000000abc,             // NaN in dst stays, payload intact
		math.Float64bits(1),            // NaN in src ignored
		math.Float64bits(math.Inf(-1)), // even against -Inf
		0x8000000000000000,             // +0 is not > -0: -0 stays
		math.Float64bits(3),
		0x7ff8000000000abc,
	} {
		if math.Float64bits(got[i]) != want {
			t.Errorf("element %d: got %#016x want %#016x", i, math.Float64bits(got[i]), want)
		}
	}
}

func float64Words(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		if rng.Intn(3) == 0 {
			vals[i] = math.Float64frombits(edgeWords[rng.Intn(len(edgeWords))])
		} else {
			vals[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return vals
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameArray reports whether two slices with capacity start at the same byte.
func sameArray(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

// checkCodecs compares all eight codec entry points with the oracles on one
// byte string (decoded at the given misalignment) and on the values it
// decodes to, including appending behind a prefix that must survive.
func checkCodecs(t testing.TB, raw []byte, off int) {
	t.Helper()
	if off > len(raw) {
		off = len(raw)
	}
	b := raw[off:]
	k := len(b) / 8

	wantF, wantI := refDecodeFloat64s(b), refDecodeInt64s(b)
	if got := DecodeFloat64s(b); !sameBits(got, wantF) || got == nil {
		t.Fatalf("DecodeFloat64s(len %d, offset %d) differs from the reference", len(b), off)
	}
	if got := DecodeInt64s(b); !sameInts(got, wantI) || got == nil {
		t.Fatalf("DecodeInt64s(len %d, offset %d) differs from the reference", len(b), off)
	}

	// Into a prefix with exact capacity: the prefix survives, nothing moves.
	preF := append(make([]float64, 0, 2+k), 1.5, math.Float64frombits(edgeWords[4]))
	gotF := DecodeFloat64sInto(preF, b)
	if !sameBits(gotF[:2], preF) || !sameBits(gotF[2:], wantF) || &gotF[0] != &preF[0] {
		t.Fatalf("DecodeFloat64sInto(len %d, offset %d): wrong values or reallocated with capacity", len(b), off)
	}
	preI := append(make([]int64, 0, 2+k), -3, math.MinInt64)
	gotI := DecodeInt64sInto(preI, b)
	if !sameInts(gotI[:2], preI) || !sameInts(gotI[2:], wantI) || &gotI[0] != &preI[0] {
		t.Fatalf("DecodeInt64sInto(len %d, offset %d): wrong values or reallocated with capacity", len(b), off)
	}
	// Without capacity they grow like append.
	if got := DecodeFloat64sInto(nil, b); !sameBits(got, wantF) {
		t.Fatalf("DecodeFloat64sInto(nil, len %d) differs from the reference", len(b))
	}
	if got := DecodeInt64sInto(nil, b); !sameInts(got, wantI) {
		t.Fatalf("DecodeInt64sInto(nil, len %d) differs from the reference", len(b))
	}

	// Encoding what was decoded gives back the whole words of b, bit for bit.
	encF, encI := refEncodeFloat64s(wantF), refEncodeInt64s(wantI)
	if !bytes.Equal(encF, b[:8*k]) || !bytes.Equal(encI, b[:8*k]) {
		t.Fatalf("reference codecs do not round-trip len %d", len(b))
	}
	if got := EncodeFloat64s(wantF); !bytes.Equal(got, encF) || got == nil {
		t.Fatalf("EncodeFloat64s(%d values) differs from the reference", k)
	}
	if got := EncodeInt64s(wantI); !bytes.Equal(got, encI) || got == nil {
		t.Fatalf("EncodeInt64s(%d values) differs from the reference", k)
	}
	// Behind a misaligned prefix, with exact capacity and with none.
	prefix := raw[:off]
	for _, c := range []int{off + 8*k, 0} {
		dst := append(make([]byte, 0, c), prefix...)
		if got := AppendFloat64s(dst, wantF); !bytes.Equal(got[:off], prefix) || !bytes.Equal(got[off:], encF) ||
			(c > 0 && !sameArray(got, dst)) {
			t.Fatalf("AppendFloat64s(prefix %d cap %d, %d values): wrong bytes or reallocated with capacity", off, c, k)
		}
		dst = append(make([]byte, 0, c), prefix...)
		if got := AppendInt64s(dst, wantI); !bytes.Equal(got[:off], prefix) || !bytes.Equal(got[off:], encI) ||
			(c > 0 && !sameArray(got, dst)) {
			t.Fatalf("AppendInt64s(prefix %d cap %d, %d values): wrong bytes or reallocated with capacity", off, c, k)
		}
	}
}

func TestCodecsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range testLens() {
		for off := 0; off < 8; off++ {
			raw := make([]byte, off+n)
			fillWords(rng, raw[off:])
			rng.Read(raw[:off])
			checkCodecs(t, raw, off)
		}
	}
	// Every edge pattern through both directions, in every lane.
	vals := make([]float64, 0, 7*len(edgeWords))
	for _, w := range edgeWords {
		for l := 0; l < 7; l++ {
			vals = append(vals, math.Float64frombits(w))
		}
	}
	if got := DecodeFloat64s(EncodeFloat64s(vals)); !sameBits(got, vals) {
		t.Fatal("edge patterns did not survive EncodeFloat64s/DecodeFloat64s bit for bit")
	}
}

// TestCodecsDoNotAllocateWithCapacity: the append-style forms are what a
// caller in a loop keeps its buffers with, so with capacity they must cost
// no allocation at all; the scalar facade helpers ride on the same promise.
func TestCodecsDoNotAllocateWithCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{0, 1, 3, 4, 5, 512} {
		fv := float64Words(rng, k)
		iv := make([]int64, k)
		for i := range iv {
			iv[i] = int64(rng.Uint64())
		}
		buf := make([]byte, 0, 8*k)
		fout := make([]float64, 0, k)
		iout := make([]int64, 0, k)
		for name, f := range map[string]func(){
			"AppendFloat64s":     func() { buf = AppendFloat64s(buf[:0], fv) },
			"AppendInt64s":       func() { buf = AppendInt64s(buf[:0], iv) },
			"DecodeFloat64sInto": func() { fout = DecodeFloat64sInto(fout[:0], buf[:8*k]) },
			"DecodeInt64sInto":   func() { iout = DecodeInt64sInto(iout[:0], buf[:8*k]) },
		} {
			if n := testing.AllocsPerRun(20, f); n != 0 {
				t.Errorf("%s with capacity for %d values: %v allocs per run, want 0", name, k, n)
			}
		}
	}
}

// TestScalarAllreduce: the one-element helpers against the vector path they
// used to be built from.
func TestScalarAllreduce(t *testing.T) {
	w := collWorld(t, 8, core.ModeLocalityAware)
	err := w.Run(func(r *Rank) error {
		n := r.Size()
		if got, want := r.AllreduceFloat64(float64(r.Rank())+0.5, SumFloat64), float64(n*(n-1)/2)+0.5*float64(n); got != want {
			t.Errorf("rank %d: AllreduceFloat64 sum = %v, want %v", r.Rank(), got, want)
		}
		if got := r.AllreduceFloat64(float64(-r.Rank()), MaxFloat64); got != 0 || math.Signbit(got) {
			t.Errorf("rank %d: AllreduceFloat64 max = %v, want +0", r.Rank(), got)
		}
		if got, want := r.AllreduceInt64(int64(r.Rank())-3, MinInt64), int64(-3); got != want {
			t.Errorf("rank %d: AllreduceInt64 min = %v, want %v", r.Rank(), got, want)
		}
		if got, want := r.AllreduceInt64(math.MaxInt64, SumInt64), int64(uint64(math.MaxInt64)*uint64(n)); got != want {
			t.Errorf("rank %d: AllreduceInt64 wrapping sum = %v, want %v", r.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// refFillAllreduce and refCheckAllreduce are machine.go's loops from before
// they took the kernels' shape (the check returns the element it would have
// aborted on, or -1).
func refFillAllreduce(buf []byte, rank, it int) {
	for i := 0; i+8 <= len(buf); i += 8 {
		v := int64(rank+1)*int64(it+1) + int64(i/8)
		binary.LittleEndian.PutUint64(buf[i:], uint64(v))
	}
}

func refCheckAllreduce(size int, buf []byte, it int) int {
	n := int64(size)
	for i := 0; i+8 <= len(buf); i += 8 {
		want := n*(n+1)/2*int64(it+1) + n*int64(i/8)
		if got := int64(binary.LittleEndian.Uint64(buf[i:])); got != want {
			return i / 8
		}
	}
	return -1
}

// TestFillCheckAllreduceMatchReference: the self-checking workload's fill is
// byte-identical to the old loop, the sum of every rank's fill passes the
// check, and one wrong word anywhere — each lane of the body, the tail — is
// reported as exactly that element.
func TestFillCheckAllreduceMatchReference(t *testing.T) {
	const size, it = 5, 3
	// checkAllreduce reads only these fields; the abort surfaces as Run's error.
	aborted := func(buf []byte) string {
		e := sim.NewEngine()
		e.Go("check", func(p *sim.Proc) { checkAllreduce(&Rank{rank: 2, size: size, p: p}, buf, it) })
		if err := e.Run(); err != nil {
			return err.Error()
		}
		return ""
	}
	for _, n := range testLens() {
		sum := make([]byte, n)
		for k := 0; k < size; k++ {
			got, want := bytes.Repeat([]byte{0xa5}, n), bytes.Repeat([]byte{0xa5}, n)
			fillAllreduce(got, k, it)
			refFillAllreduce(want, k, it)
			if !bytes.Equal(got, want) {
				t.Fatalf("fillAllreduce(len %d, rank %d): differs from the reference", n, k)
			}
			refSumInt64(sum, got)
		}
		if e := refCheckAllreduce(size, sum, it); e >= 0 {
			t.Fatalf("len %d: the reference check rejects element %d of a correct sum", n, e)
		}
		if msg := aborted(sum); msg != "" {
			t.Fatalf("checkAllreduce(len %d) aborted on a correct sum: %s", n, msg)
		}
		if n > 67 {
			continue // one wrong word at each of 8 positions is covered below 68
		}
		for e := 0; e < n/8; e++ {
			sum[8*e+5] ^= 0x40
			if want := fmt.Sprintf("iter %d elem %d:", it, refCheckAllreduce(size, sum, it)); !strings.Contains(aborted(sum), want) {
				t.Fatalf("checkAllreduce(len %d), element %d corrupted: got %q, want it to name %q", n, e, aborted(sum), want)
			}
			sum[8*e+5] ^= 0x40
		}
	}
}
