package core

import "testing"

func TestBufPoolRecycles(t *testing.T) {
	var p BufPool
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/128", len(a), cap(a))
	}
	p.Put(a)
	b := p.Get(65) // same class (128)
	if len(b) != 65 {
		t.Fatalf("len = %d", len(b))
	}
	if &a[:1][0] != &b[:1][0] {
		t.Error("second Get did not recycle the freed buffer")
	}
	ctr := p.Counters()
	if ctr.Gets != 2 || ctr.Hits != 1 {
		t.Errorf("counters = %+v, want Gets=2 Hits=1", ctr)
	}
	if got := ctr.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestBufPoolEdgeCases(t *testing.T) {
	var p BufPool
	if buf := p.Get(0); buf != nil {
		t.Errorf("Get(0) = %v, want nil", buf)
	}
	p.Put(nil) // must not panic

	// Oversized requests are honest allocations, not pooled.
	big := p.Get(1<<poolMaxShift + 1)
	if len(big) != 1<<poolMaxShift+1 {
		t.Fatalf("oversized len = %d", len(big))
	}
	p.Put(big) // cap not a pooled class: dropped
	if ctr := p.Counters(); ctr.Gets != 0 {
		t.Errorf("oversized request counted as pooled get: %+v", ctr)
	}

	// Subslices with odd capacities are rejected rather than corrupting a class.
	buf := p.Get(64)
	p.Put(buf[3:17])
	if got := p.Get(14); cap(got) != 32 {
		t.Errorf("subslice leaked into pool: cap=%d", cap(got))
	}
}

func TestBufPoolGetCopy(t *testing.T) {
	var p BufPool
	src := []byte("hello, fabric")
	dst := p.GetCopy(src)
	if string(dst) != string(src) {
		t.Errorf("copy = %q", dst)
	}
	src[0] = 'X'
	if dst[0] == 'X' {
		t.Error("GetCopy aliased its source")
	}
}

func TestBufPoolMinClass(t *testing.T) {
	var p BufPool
	tiny := p.Get(1)
	if cap(tiny) != 1<<poolMinShift {
		t.Errorf("Get(1) cap = %d, want min class %d", cap(tiny), 1<<poolMinShift)
	}
	p.Put(tiny)
	again := p.Get(2)
	if p.Counters().Hits != 1 {
		t.Error("tiny buffer not recycled")
	}
	_ = again
}

// allocations is the number of buffers the pools behind a channel had to
// allocate: every request counted once, minus the recycled ones.
func allocations(pools ...*BufPool) uint64 {
	var n uint64
	for _, p := range pools {
		c := p.Counters()
		n += c.Gets - c.Hits
	}
	return n
}

// A one-way stream: the receiver has lent nothing out, so every buffer it
// empties waits on the direction, and the sender's second window allocates
// nothing.
func TestDirPoolOneWayStreamReuses(t *testing.T) {
	var sender, receiver BufPool
	var dir DirPool
	const window = 8
	for w := 0; w < 4; w++ {
		var inflight [][]byte
		for i := 0; i < window; i++ {
			inflight = append(inflight, dir.Get(&sender, 500))
		}
		for _, buf := range inflight {
			dir.Return(&receiver, buf)
		}
	}
	if got := allocations(&sender, &receiver); got != window {
		t.Errorf("4 windows of %d allocated %d buffers, want %d (one window's worth)", window, got, window)
	}
	if c := sender.Counters(); c.Gets != 4*window {
		t.Errorf("sender counted %d requests, want %d: each request exactly once", c.Gets, 4*window)
	}
	if c := receiver.Counters(); c.Gets != 0 {
		t.Errorf("receiver's pool counted %d requests; it made none", c.Gets)
	}
}

// A pairwise exchange with a changing partner: every rank sends one buffer
// and receives one per round. What it receives replaces what it sent, so a
// rank allocates once, however many partners (directions) it goes through.
func TestDirPoolSymmetricExchangeLivesOffHome(t *testing.T) {
	const ranks, rounds = 8, 7
	home := make([]BufPool, ranks)
	dirs := make([][]DirPool, ranks) // dirs[a][b]: a -> b
	for i := range dirs {
		dirs[i] = make([]DirPool, ranks)
	}
	for round := 1; round <= rounds; round++ {
		sent := make([][]byte, ranks)
		for a := 0; a < ranks; a++ {
			sent[a] = dirs[a][a^round].Get(&home[a], 4096)
		}
		for a := 0; a < ranks; a++ {
			b := a ^ round
			dirs[a][b].Return(&home[b], sent[a])
		}
	}
	pools := make([]*BufPool, ranks)
	for i := range home {
		pools[i] = &home[i]
	}
	if got := allocations(pools...); got != ranks {
		t.Errorf("%d ranks exchanging with %d partners each allocated %d buffers, want %d (one per rank)", ranks, rounds, got, ranks)
	}
}

// Classes do not mix on a direction's list, and buffers no pool would take
// are dropped.
func TestDirPoolClassesAndForeignBuffers(t *testing.T) {
	var sender, receiver BufPool
	var dir DirPool
	small, big := dir.Get(&sender, 40), dir.Get(&sender, 5000)
	dir.Return(&receiver, small)
	dir.Return(&receiver, big)
	dir.Return(&receiver, nil)
	dir.Return(&receiver, make([]byte, 100)) // capacity is no pool class
	if got := dir.Get(&sender, 4100); &got[:1][0] != &big[:1][0] {
		t.Error("a 4100 B request did not get the direction's 8 KiB buffer")
	}
	if got := dir.Get(&sender, 33); &got[:1][0] != &small[:1][0] {
		t.Error("a 33 B request did not get the direction's 64 B buffer")
	}
	if got := dir.GetCopy(&sender, []byte("abc")); string(got) != "abc" {
		t.Errorf("GetCopy = %q", got)
	}
	if got := allocations(&sender, &receiver); got != 3 {
		t.Errorf("allocated %d buffers, want 3", got)
	}
}
