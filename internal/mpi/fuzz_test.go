package mpi

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"strings"
	"testing"
)

// putHdr encodes the wire header and payload into a buffer sized
// hcaHdrLen+len(payload).
func putHdr(kind uint8, ctx, src, tag, size int, seq, msgID uint64, payload []byte) []byte {
	return encodeHdr(make([]byte, hcaHdrLen+len(payload)), kind, ctx, src, tag, size, seq, msgID, payload)
}

// FuzzHCAHeaderRoundTrip checks that the wire header codec is a bijection
// for all representable field values (go test runs the seed corpus as a
// regression test; `go test -fuzz=FuzzHCAHeader` explores further).
func FuzzHCAHeaderRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint32(0), int32(0), uint32(0), uint64(0), uint64(0), []byte{})
	f.Add(hcaEager, uint16(7), uint32(12), int32(-9), uint32(5), uint64(42), uint64(99), []byte("hello"))
	f.Add(hcaRTS, uint16(0x8001), uint32(255), int32(1<<30), uint32(1<<20), uint64(1)<<63, uint64(7), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, kind uint8, ctx uint16, src uint32, tag int32, size uint32, seq, msgID uint64, payload []byte) {
		wire := putHdr(kind, int(ctx), int(src), int(tag), int(size), seq, msgID, payload)
		m := parseHdr(wire)
		if m.kind != kind || m.ctx != int(ctx) || m.src != int(src) || m.tag != int(tag) ||
			m.size != int(size) || m.seq != seq || m.msgID != msgID {
			t.Fatalf("header fields corrupted: %+v", m)
		}
		if !bytes.Equal(m.payload, payload) && !(len(m.payload) == 0 && len(payload) == 0) {
			t.Fatalf("payload corrupted: %v vs %v", m.payload, payload)
		}
	})
}

// fuzzSeedWords is a 67-byte string of edge words (datatype_test.go) and an
// odd tail: two unrolled blocks, a word loop and leftover bytes in one seed.
func fuzzSeedWords(first int) []byte {
	b := make([]byte, 0, 67)
	for i := 0; len(b)+8 <= 67; i++ {
		b = binary.LittleEndian.AppendUint64(b, edgeWords[(first+i)%len(edgeWords)])
	}
	return append(b, 0xfe, 0x01, 0x80)
}

// FuzzReduceOpsMatchReference drives every reduction kernel and the
// per-element loop it replaced (datatype_test.go) over the same random
// bytes, lengths and misalignments — sel picks the op, its top bit the exact
// alias op(b, b) — and requires the same bytes out, nothing written outside
// dst and src untouched.
func FuzzReduceOpsMatchReference(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(1), uint8(0), uint8(5))
	for i := range reduceOps {
		f.Add(fuzzSeedWords(i), fuzzSeedWords(3*i+1), uint8(i), uint8(7-i), uint8(i))
		f.Add(fuzzSeedWords(i)[:40], fuzzSeedWords(i+4), uint8(0), uint8(3), uint8(i)|0x80)
	}
	f.Fuzz(func(t *testing.T, d, s []byte, doff, soff, sel uint8) {
		o := reduceOps[int(sel&0x7f)%len(reduceOps)]
		do, so := min(int(doff%8), len(d)), min(int(soff%8), len(s))
		got, want, src := bytes.Clone(d), bytes.Clone(d), bytes.Clone(s)
		if sel&0x80 != 0 {
			o.op(got[do:], got[do:])
			o.ref(want[do:], want[do:])
			if !bytes.Equal(got, want) {
				t.Fatalf("%s(b, b) len %d offset %d: got %x want %x", o.name, len(d)-do, do, got, want)
			}
			return
		}
		o.op(got[do:], src[so:])
		o.ref(want[do:], s[so:])
		if !bytes.Equal(got[:do], want[:do]) || firstDiff(o.name, got[do:], want[do:], d[do:], s[so:]) >= 0 {
			t.Fatalf("%s dst len %d (offset %d) src len %d (offset %d): got %x want %x",
				o.name, len(d)-do, do, len(s)-so, so, got, want)
		}
		if !bytes.Equal(src, s) {
			t.Fatalf("%s modified src", o.name)
		}
	})
}

// FuzzCodecRoundTrip decodes random bytes at a random misalignment with all
// four decoders, re-encodes with all four encoders (behind a prefix, with
// and without capacity) and compares every step with the old loops: the
// whole words of the input must come back bit for bit.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint8(3))
	f.Add(fuzzSeedWords(0), uint8(0))
	f.Add(fuzzSeedWords(5), uint8(3))
	f.Add(fuzzSeedWords(11)[:32], uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8) {
		checkCodecs(t, raw, int(off%8))
	})
}

// fuzzEnvKeys are the variables OptionsFromEnv reads, sizes first, and one it
// ignores.
var fuzzEnvKeys = []string{
	"MV2_SMP_EAGERSIZE", "MV2_SMPI_LENGTH_QUEUE", "MV2_IBA_EAGER_THRESHOLD",
	"MV2_SMP_USE_CMA", "MV2_CONTAINER_SUPPORT", "MV2_USE_HIERARCHICAL_COLL",
	"MV2_ALLREDUCE_ALGO", "MV2_DEFAULT_RETRY_COUNT", "MV2_DEFAULT_TIME_OUT",
	"MV2_SOMETHING_UNKNOWN",
}

// FuzzOptionsFromEnv feeds the MV2_* parser two variables with arbitrary
// values — the first parser of bytes from outside the library to be fuzzed.
// It must never panic; when it accepts, the options must pass Validate and
// every size it parsed must be the exact product, computed in math/big, of
// the digits and the suffix (parseSize once let the product wrap).
func FuzzOptionsFromEnv(f *testing.F) {
	sizes := []string{
		"18014398509481985K", "9007199254740993K", "8796093022208M", "9223372036854775807",
		"16K", "256K", "17408", "24k", "1M", " 8k ", "+4K", "lots", "0", "-1", "-4K", "0M", "", "K",
	}
	for i, v := range sizes {
		f.Add(uint8(i%3), v, sizes[(i+5)%len(sizes)])
	}
	for i, v := range []string{"1", "On", "TRUE", " 1 ", "Off", "maybe", "auto", "Rab", "quantum", "7", "banana", "31", "-3"} {
		f.Add(uint8(3+i%7+10*(i%3)), v, "32K")
	}
	f.Fuzz(func(t *testing.T, sel uint8, a, b string) {
		n := len(fuzzEnvKeys)
		env := map[string]string{fuzzEnvKeys[int(sel)/n%n]: b, fuzzEnvKeys[int(sel)%n]: a}
		opts, err := OptionsFromEnv(DefaultOptions(), env)
		if err != nil {
			return
		}
		if err := opts.Validate(); err != nil {
			t.Fatalf("%q accepted, but the options do not validate: %v", env, err)
		}
		for key, got := range map[string]int{
			"MV2_SMP_EAGERSIZE":       opts.Tunables.SMPEagerSize,
			"MV2_SMPI_LENGTH_QUEUE":   opts.Tunables.SMPLengthQueue,
			"MV2_IBA_EAGER_THRESHOLD": opts.Tunables.IBAEagerThreshold,
		} {
			val, set := env[key]
			if !set {
				continue
			}
			digits, mult := strings.ToUpper(strings.TrimSpace(val)), int64(1)
			switch {
			case strings.HasSuffix(digits, "K"):
				digits, mult = strings.TrimSuffix(digits, "K"), 1<<10
			case strings.HasSuffix(digits, "M"):
				digits, mult = strings.TrimSuffix(digits, "M"), 1<<20
			}
			want, ok := new(big.Int).SetString(digits, 10)
			if !ok {
				t.Fatalf("%s=%q accepted as %d, but %q is not a decimal number", key, val, got, digits)
			}
			if want.Mul(want, big.NewInt(mult)); want.Cmp(big.NewInt(int64(got))) != 0 || got <= 0 {
				t.Fatalf("%s=%q parsed as %d, the exact size is %s", key, val, got, want)
			}
		}
	})
}
