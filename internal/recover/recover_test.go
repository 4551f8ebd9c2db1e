package recover

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cmpi/internal/sim"
)

func sampleSnapshot() *Snapshot {
	s := &Snapshot{
		Version: SnapshotVersion,
		Epoch:   3,
		At:      sim.Time(123456789),
		Ranks:   4,
		Blobs:   [][]byte{{1, 2, 3}, nil, {0xff}, {}},
		Mail:    make([][]Message, 4),
		SendSeq: map[[2]int]uint64{{0, 1}: 7, {3, 2}: 1},
	}
	s.Mail[1] = []Message{
		{Src: 0, Tag: 9, Ctx: 1, Bytes: 2, Seq: 5, Data: []byte{0xaa, 0xbb}},
		{Src: 2, Tag: 0, Ctx: 0x8001, Bytes: 0, Seq: 1, Data: nil},
	}
	return s
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	enc := s.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatalf("round trip changed the artifact:\n%s\nvs\n%s", enc, got.Encode())
	}
	if got.Epoch != 3 || got.At != s.At || got.Ranks != 4 {
		t.Fatalf("header fields lost: %+v", got)
	}
	if got.SendSeq[[2]int{0, 1}] != 7 || got.SendSeq[[2]int{3, 2}] != 1 || len(got.SendSeq) != 2 {
		t.Fatalf("seq matrix lost: %v", got.SendSeq)
	}
	if len(got.Mail[1]) != 2 || got.Mail[1][0].Seq != 5 || !bytes.Equal(got.Mail[1][0].Data, []byte{0xaa, 0xbb}) {
		t.Fatalf("mail lost: %+v", got.Mail[1])
	}
	if got.Mail[1][1].Ctx != 0x8001 || got.Mail[1][1].Bytes != 0 {
		t.Fatalf("empty-payload mail lost: %+v", got.Mail[1][1])
	}
}

func TestSnapshotEncodeDeterministic(t *testing.T) {
	a := sampleSnapshot().Encode()
	b := sampleSnapshot().Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("identical snapshots encoded differently")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"cmpi-ckpt v2 epoch=1 at=0 ranks=1\n",
		"cmpi-ckpt v1 epoch=1 at=0 ranks=2\nblob 0 \nblob 1 \nblob 5 aa\n",
		"cmpi-ckpt v1 epoch=1 at=0 ranks=2\nblob 0 \nblob 1 \nseq 0 9 3\n",
		"cmpi-ckpt v1 epoch=1 at=0 ranks=2\nblob 0 \nblob 1 \nmail 0 1 0 1 3 1 aa\n", // bytes=3, payload 1
		"cmpi-ckpt v1 epoch=1 at=0 ranks=2\nblob 0 \nblob 1 \nbogus 1 2 3\n",
		"cmpi-ckpt v1 epoch=1 at=0 ranks=-1\n",
		"cmpi-ckpt v1 epoch=1 at=0 ranks=2\nblob 0 aa\n",  // one blob line for two ranks
		"cmpi-ckpt v1 epoch=0 at=0 ranks=1099511627776\n", // once a ranks² allocation
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c)); err == nil {
			t.Errorf("Decode accepted %q", strings.SplitN(c, "\n", 2)[0])
		}
	}
}

// TestDecodeAllocatesLinearly: every rank has a blob line but an artifact
// need have no seq line, so what Decode allocates grows with its input, not
// with ranks² (8192 ranks were 512 MiB of sequence words), whether it accepts
// the artifact or rejects its blob lines.
func TestDecodeAllocatesLinearly(t *testing.T) {
	const ranks = 8192
	for _, bare := range []bool{false, true} {
		var b strings.Builder
		fmt.Fprintf(&b, "cmpi-ckpt v1 epoch=1 at=0 ranks=%d\n", ranks)
		for r := 0; r < ranks; r++ {
			if bare {
				b.WriteString("blob \n")
			} else {
				fmt.Fprintf(&b, "blob %d \n", r)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode([]byte(b.String()))
		runtime.ReadMemStats(&after)
		if (err != nil) != bare {
			t.Errorf("bare blob lines %v: Decode error %v", bare, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64*uint64(b.Len()) {
			t.Errorf("bare blob lines %v: Decode of %d bytes allocated %d", bare, b.Len(), got)
		}
	}
}

// FuzzSnapshotDecode: a checkpoint artifact is bytes from outside. Decode
// returns an error or a snapshot whose encoding decodes to itself.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(sampleSnapshot().Encode())
	f.Add([]byte("cmpi-ckpt v1 epoch=0 at=0 ranks=1099511627776\n"))
	f.Add([]byte("cmpi-ckpt v1 epoch=0 at=0 ranks=3\nblob \nblob \nblob \n"))
	f.Add([]byte("cmpi-ckpt v1 epoch=1 at=5 ranks=2\nblob 0 \nblob 1 0a\nseq 1 0 4\nmail 0 1 3 0 1 4 ff\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		enc := s.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("the encoding of an accepted artifact does not decode: %v\n%s", err, enc)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("Encode∘Decode is not the identity on\n%s", enc)
		}
	})
}

func TestStoreCommitIsolatesBuffers(t *testing.T) {
	st := NewStore()
	s := sampleSnapshot()
	s.Epoch = 0 // let the store assign it
	st.Commit(s)
	s.Blobs[0][0] = 99
	s.Mail[1][0].Data[0] = 99
	latest := st.Latest()
	if latest.Blobs[0][0] != 1 || latest.Mail[1][0].Data[0] != 0xaa {
		t.Fatal("committed snapshot aliases the caller's buffers")
	}
	if latest.Epoch != 1 {
		t.Fatalf("Epoch = %d, want 1 (store-assigned)", latest.Epoch)
	}
	st.Commit(sampleSnapshot())
	if st.Len() != 2 || st.Latest().Epoch != 3 {
		t.Fatalf("Len=%d latest epoch=%d, want 2 and 3", st.Len(), st.Latest().Epoch)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyRespawn.String() != "respawn" || PolicyShrink.String() != "shrink" {
		t.Fatal("policy names changed")
	}
}
