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
	big := p.Get(classCap(poolMaxShift) + 1)
	if len(big) != classCap(poolMaxShift)+1 {
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

// A power-of-two payload behind a 32-byte header — every HCA wire message —
// fits the class of its power of two: classes from 1 KiB up carry 64 bytes of
// slack, smaller ones are exact.
func TestBufPoolClassesFitAHeader(t *testing.T) {
	var p BufPool
	for k := poolSlackShift; k <= poolMaxShift; k++ {
		buf := p.Get(1<<k + 32)
		if len(buf) != 1<<k+32 {
			t.Fatalf("Get(2^%d+32): len = %d", k, len(buf))
		}
		if limit := 1.07 * float64(int(1)<<k); float64(cap(buf)) >= limit {
			t.Errorf("Get(2^%d+32): cap = %d, want < %.0f", k, cap(buf), limit)
		}
		p.Put(buf)
		if again := p.Get(1 << k); &again[0] != &buf[0] {
			t.Errorf("Get(2^%d) did not recycle the 2^%d+32 buffer: they are one class", k, k)
		}
	}
	for k := poolMinShift; k < poolSlackShift; k++ {
		if buf := p.Get(1 << k); cap(buf) != 1<<k {
			t.Errorf("Get(2^%d): cap = %d, want the exact power of two", k, cap(buf))
		}
	}
	// One byte past the slack is the next class.
	if buf := p.Get(1<<12 + poolSlack + 1); cap(buf) != 1<<13+poolSlack {
		t.Errorf("Get(4 KiB + slack + 1): cap = %d, want %d", cap(buf), 1<<13+poolSlack)
	}

	// Put still ignores what Get did not hand out: subslices of a slack class,
	// and capacities that are no class — an exact power of two from 1 KiB up
	// among them.
	var q BufPool
	buf := q.Get(1 << 12)
	q.Put(buf[8:])
	q.Put(buf[:100:200])
	q.Put(make([]byte, 1<<12))
	q.Put(make([]byte, 1<<12+32))
	for _, n := range []int{1 << 12, 100, 1 << 11} {
		q.Get(n)
	}
	if c := q.Counters(); c.Hits != 0 {
		t.Errorf("a subslice or foreign buffer was pooled: %+v", c)
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
	dir.Return(&receiver, make([]byte, 100))  // capacity is no pool class
	dir.Return(&receiver, make([]byte, 8192)) // nor is a bare power of two from 1 KiB up
	if got := dir.Get(&sender, 4200); &got[:1][0] != &big[:1][0] {
		t.Error("a 4200 B request did not get the direction's 8 KiB buffer")
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
