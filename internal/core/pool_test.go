package core

import (
	"sync"
	"testing"
)

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

// emptyDepot starts a test from, and leaves behind, an empty process-wide
// depot.
func emptyDepot(t *testing.T) {
	t.Helper()
	DropDepot()
	t.Cleanup(DropDepot)
}

// Every class, exact and with slack, goes in and comes out whole; a class
// that holds nothing says so.
func TestDepotClassRoundTrip(t *testing.T) {
	d := depot{limit: depotCap}
	for c := poolMinShift; c <= depotMaxShift; c++ {
		buf := make([]byte, 7, classCap(c))
		if c <= poolMaxShift {
			d.give([][]byte{buf})
		} else {
			d.putLarge(buf)
		}
		if d.bytes != classCap(c) {
			t.Fatalf("class %d: depot holds %d bytes after one buffer, want %d", c, d.bytes, classCap(c))
		}
		if c > poolMinShift && d.take(c-1) != nil {
			t.Errorf("class %d: the class below served it", c)
		}
		got := d.take(c)
		if len(got) != classCap(c) || &got[0] != &buf[:1][0] {
			t.Errorf("class %d: take returned len %d, want the %d-byte buffer given", c, len(got), classCap(c))
		}
		if d.take(c) != nil || d.bytes != 0 {
			t.Errorf("class %d: depot not empty after its one buffer left (%d bytes)", c, d.bytes)
		}
	}
}

// What Put would refuse the depot refuses too: a list can carry anything.
func TestDepotRefusesForeignBuffers(t *testing.T) {
	d := depot{limit: depotCap}
	whole := make([]byte, 64)
	d.give([][]byte{nil, whole[3:17], make([]byte, 100), make([]byte, 8192), make([]byte, classCap(poolMaxShift)+1)})
	if d.bytes != 0 {
		t.Errorf("depot kept %d bytes of buffers no pool class has", d.bytes)
	}
	for c := range d.classes {
		if len(d.classes[c]) != 0 {
			t.Errorf("class %d holds a foreign buffer", c)
		}
	}
}

// The depot never holds more than its limit: what would cross it is dropped,
// a smaller buffer that still fits is kept, and a take makes room again.
func TestDepotRespectsItsCap(t *testing.T) {
	if theDepot.limit != depotCap || depotCap != 128<<20 {
		t.Fatalf("process-wide depot limit %d, depotCap %d, want 128 MiB", theDepot.limit, depotCap)
	}
	const c = 20 // 1 MiB + slack
	d := depot{limit: 4 << 20}
	var list [][]byte
	for i := 0; i < 5; i++ {
		list = append(list, make([]byte, 0, classCap(c)))
	}
	refused := d.give(list)
	if len(d.classes[c]) != 3 || d.bytes != 3*classCap(c) {
		t.Fatalf("a 4 MiB depot given five %d-byte buffers holds %d (%d bytes), want 3", classCap(c), len(d.classes[c]), d.bytes)
	}
	if refused != 2*classCap(c) {
		t.Errorf("give reported %d bytes refused, want the two buffers' %d", refused, 2*classCap(c))
	}
	d.give([][]byte{make([]byte, 0, classCap(c))})
	if len(d.classes[c]) != 3 {
		t.Error("a buffer that crosses the limit was kept")
	}
	d.give([][]byte{make([]byte, 0, classCap(10))})
	if len(d.classes[10]) != 1 {
		t.Error("a small buffer that fits under the limit was dropped")
	}
	d.take(c)
	d.give([][]byte{make([]byte, 0, classCap(c))})
	if len(d.classes[c]) != 3 || d.bytes > d.limit {
		t.Errorf("after a take made room: %d buffers, %d bytes", len(d.classes[c]), d.bytes)
	}
}

// A pool's miss is served by what another pool's Drain left, counted apart
// from its own hits; only the free lists travel, the counters stay.
func TestBufPoolMissAsksDepot(t *testing.T) {
	emptyDepot(t)
	var first, second BufPool
	a, held := first.Get(5000), first.Get(5000)
	first.Put(a)
	var dr Drain
	dr.Home(&first)
	if err := dr.Unbalanced(); err != nil {
		t.Error(err)
	}
	if c := first.Counters(); c.Gets != 2 || c.Hits != 0 || c.Depot != 0 {
		t.Errorf("drained pool's counters = %+v, want Gets=2 and nothing else", c)
	}
	b := second.Get(4200)
	if &b[0] != &a[0] {
		t.Error("the second pool's miss did not get the first pool's drained buffer")
	}
	fresh := second.Get(4200)
	if &fresh[0] == &held[0] || &fresh[0] == &a[0] {
		t.Error("a buffer still held, or one already taken, came out of the depot")
	}
	second.Put(b)
	second.Get(4200)
	if c := second.Counters(); c.Gets != 3 || c.Hits != 1 || c.Depot != 1 {
		t.Errorf("second pool's counters = %+v, want Gets=3 Hits=1 Depot=1", c)
	}
	if got := first.Get(5000); &got[0] == &a[0] {
		t.Error("the drained pool still lists the buffer it handed over")
	}
}

// Requests above the per-owner classes go to the depot and back without any
// pool listing or counting them; above the depot's classes they are plain
// allocations that nothing keeps.
func TestBufPoolLargeClasses(t *testing.T) {
	emptyDepot(t)
	var p, q BufPool
	for _, n := range []int{classCap(poolMaxShift) + 1, 8 << 20, 16 << 20, classCap(depotMaxShift)} {
		buf := p.Get(n)
		if len(buf) != n || cap(buf) != classCap(23) && cap(buf) != classCap(24) {
			t.Fatalf("Get(%d) = len %d cap %d, want a large class", n, len(buf), cap(buf))
		}
		p.Free(buf)
		if got := q.Get(n); &got[0] != &buf[0] {
			t.Errorf("Get(%d) from another pool did not return the buffer just freed", n)
		}
		p.Free(buf[:1]) // whoever finishes with it; the length does not matter
	}
	if p.ctr != (PoolCounters{}) || q.ctr != (PoolCounters{}) {
		t.Errorf("large requests were counted: %+v, %+v", p.ctr, q.ctr)
	}
	for c := range p.classes {
		if len(p.classes[c])+len(q.classes[c]) != 0 {
			t.Errorf("an owner's class %d lists a buffer", c)
		}
	}
	small := p.Get(100)
	p.Free(small)
	if got := p.Get(100); &got[0] != &small[0] {
		t.Error("Free of an owner's class did not reach the owner's list")
	}
	if theDepot.bytes != classCap(23)+classCap(24) {
		t.Errorf("depot holds %d bytes, want one buffer of each large class", theDepot.bytes)
	}
	twice := p.Get(8 << 20)
	p.Free(twice)
	mustPanic(t, "a second Free of a large buffer", func() { q.Free(twice) })

	huge := p.Get(classCap(depotMaxShift) + 1)
	if cap(huge) != len(huge) {
		t.Errorf("a request above every class got cap %d", cap(huge))
	}
	held := theDepot.bytes
	p.Free(huge)
	if theDepot.bytes != held {
		t.Error("the depot kept a buffer of no class")
	}
}

// Drain adds up what the depot's cap turned away, buffer by buffer.
func TestDrainCountsRefusedBytes(t *testing.T) {
	emptyDepot(t)
	theDepot.limit = 3*classCap(12) + classCap(7)
	t.Cleanup(func() { theDepot.limit = depotCap })
	var p, receiver BufPool
	var dir DirPool
	var held [][]byte
	for i := 0; i < 4; i++ {
		held = append(held, p.Get(4096))
	}
	held = append(held, dir.Get(&p, 4096))
	for _, buf := range held[:4] {
		p.Put(buf)
	}
	dir.Return(&receiver, held[4]) // waits on the direction
	p.Put(p.Get(100))              // drained first, and fits beside three of the five
	var dr Drain
	dr.Home(&p)
	dr.Dir(&dir)
	if dr.Refused != 2*classCap(12) {
		t.Errorf("Refused = %d, want two %d-byte buffers", dr.Refused, classCap(12))
	}
}

// Drain checks DirPool's conservation law: with nothing in flight, what the
// homes have lent out is what waits on the directions.
func TestDrainConservation(t *testing.T) {
	emptyDepot(t)
	var sender, receiver BufPool
	var dir DirPool
	one, two := dir.Get(&sender, 500), dir.Get(&sender, 500)
	dir.Return(&receiver, one)
	var early Drain
	early.Home(&sender)
	early.Home(&receiver)
	early.Dir(&dir)
	if early.Unbalanced() == nil {
		t.Error("a buffer still in flight went unnoticed")
	}

	var s2, r2 BufPool
	var d2 DirPool
	one = d2.Get(&s2, 500)
	d2.Return(&r2, one)
	d2.Return(&r2, two) // returned here, but lent by another home
	var late Drain
	late.Home(&s2)
	late.Home(&r2)
	late.Dir(&d2)
	late.Dir(&d2) // a direction may be named again: it is empty by then
	if late.Unbalanced() == nil {
		t.Error("a buffer no drained home lent out went unnoticed")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// Turning poolStrict on poisons what the depot holds; a strict Drain poisons
// what it hands over, trips on a buffer that is listed twice, and the depot
// notices a write through an alias kept past the end of the world.
func TestDrainStrict(t *testing.T) {
	emptyDepot(t)
	var dr Drain
	var old BufPool
	held := old.Get(1000)
	held[0] = 1
	old.Put(held)
	dr.Home(&old)
	was := SetPoolStrict(true)
	t.Cleanup(func() { SetPoolStrict(was) })
	if held[0] != poison {
		t.Fatalf("a held buffer reads %#x after poolStrict went on, want %#x", held[0], poison)
	}
	var p BufPool
	buf := p.Get(100)
	buf[0] = 1
	p.Put(buf)
	dr.Home(&p)
	for i, b := range buf[:cap(buf)] {
		if b != poison {
			t.Fatalf("byte %d of a strictly drained buffer is %#x, want %#x", i, b, poison)
		}
	}
	var next BufPool
	if got := next.Get(100); &got[0] != &buf[0] {
		t.Fatal("the poisoned buffer did not come back out")
	}

	var twice BufPool
	dup := twice.Get(100)
	twice.Put(dup)
	twice.Put(dup)
	mustPanic(t, "draining a pool after a double Put", func() { dr.Home(&twice) })

	emptyDepot(t)
	var stale BufPool
	kept := stale.Get(100)
	stale.Put(kept)
	dr.Home(&stale)
	kept[50] = 7 // a world that is over writes into the next one's buffer
	mustPanic(t, "taking a depot buffer that was written to", func() { next.Get(100) })
}

// Pools of worlds that run side by side meet at the depot: under -race, eight
// goroutines taking and draining leave it consistent.
func TestDepotConcurrentUse(t *testing.T) {
	emptyDepot(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				var p BufPool
				var held [][]byte
				for i := 0; i < 8; i++ {
					buf := p.Get(40 << (uint(g+i) % 12))
					buf[0], buf[len(buf)-1] = byte(g), byte(g)
					held = append(held, buf)
				}
				for _, buf := range held {
					if buf[0] != byte(g) || buf[len(buf)-1] != byte(g) {
						t.Errorf("goroutine %d: a buffer it holds was written by another", g)
					}
					p.Put(buf)
				}
				var dr Drain
				dr.Home(&p)
			}
		}(g)
	}
	wg.Wait()
	held := 0
	for c, l := range theDepot.classes {
		seen := map[*byte]bool{}
		for _, buf := range l {
			if cap(buf) != classCap(c) || seen[&buf[:1][0]] {
				t.Fatalf("class %d lists a buffer of capacity %d, or one twice", c, cap(buf))
			}
			seen[&buf[:1][0]] = true
			held += cap(buf)
		}
	}
	if held != theDepot.bytes || held == 0 || held > theDepot.limit {
		t.Errorf("depot accounts %d bytes, lists %d", theDepot.bytes, held)
	}
}
