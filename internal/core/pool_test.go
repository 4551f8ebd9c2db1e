package core

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"
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

// dirKinds runs a test of the rule DirPool states over both of its types:
// DirPool with n-byte buffers and DirList with objects. get takes one for the
// sender on direction dir, whose home is home; ret retires x at home, the end
// done with it; ctr reads a home's counters.
func dirKinds(t *testing.T, homes, dirs, n int, test func(t *testing.T, get func(dir, home int) any, ret func(dir, home int, x any), ctr func(home int) PoolCounters)) {
	t.Run("DirPool", func(t *testing.T) {
		pools, dp := make([]BufPool, homes), make([]DirPool, dirs)
		test(t, func(dir, home int) any { return dp[dir].Get(&pools[home], n) },
			func(dir, home int, x any) { dp[dir].Return(&pools[home], x.([]byte)) },
			func(home int) PoolCounters { return pools[home].Counters() })
	})
	t.Run("DirList", func(t *testing.T) {
		lists, dl := make([]FreeList[depotObj], homes), make([]DirList[depotObj], dirs)
		test(t, func(dir, home int) any { return dl[dir].Get(&lists[home]) },
			func(dir, home int, x any) { dl[dir].Retire(&lists[home], x.(*depotObj)) },
			func(home int) PoolCounters { return lists[home].Counters() })
	})
}

// A one-way stream: the receiver has lent nothing out, so every buffer or
// object it is done with waits on the direction, and the sender's second
// window allocates nothing.
func TestDirPoolOneWayStreamReuses(t *testing.T) {
	const sender, receiver, window = 0, 1, 8
	dirKinds(t, 2, 1, 500, func(t *testing.T, get func(dir, home int) any, ret func(dir, home int, x any), ctr func(home int) PoolCounters) {
		for w := 0; w < 4; w++ {
			var inflight []any
			for i := 0; i < window; i++ {
				inflight = append(inflight, get(0, sender))
			}
			for _, x := range inflight {
				ret(0, receiver, x)
			}
		}
		s, r := ctr(sender), ctr(receiver)
		if got := s.Gets - s.Hits + r.Gets - r.Hits; got != window {
			t.Errorf("4 windows of %d allocated %d, want %d (one window's worth)", window, got, window)
		}
		if s.Gets != 4*window {
			t.Errorf("sender counted %d requests, want %d: each request exactly once", s.Gets, 4*window)
		}
		if r.Gets != 0 {
			t.Errorf("receiver's home counted %d requests; it made none", r.Gets)
		}
	})
}

// A pairwise exchange with a changing partner: every rank sends one buffer or
// object and receives one per round. What it receives replaces what it sent,
// so a rank allocates once, however many partners (directions) it goes
// through.
func TestDirPoolSymmetricExchangeLivesOffHome(t *testing.T) {
	const ranks, rounds = 8, 7
	dirKinds(t, ranks, ranks*ranks, 4096, func(t *testing.T, get func(dir, home int) any, ret func(dir, home int, x any), ctr func(home int) PoolCounters) {
		for round := 1; round <= rounds; round++ {
			sent := make([]any, ranks)
			for a := 0; a < ranks; a++ {
				sent[a] = get(a*ranks+(a^round), a) // direction a -> a^round
			}
			for a := 0; a < ranks; a++ {
				b := a ^ round
				ret(a*ranks+b, b, sent[a])
			}
		}
		var got uint64
		for i := 0; i < ranks; i++ {
			c := ctr(i)
			got += c.Gets - c.Hits
		}
		if got != ranks {
			t.Errorf("%d ranks exchanging with %d partners each allocated %d, want %d (one per rank)", ranks, rounds, got, ranks)
		}
	})
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

// emptyDepot starts a test of the depot itself from, and leaves behind, an
// empty process-wide depot: these tests count what it holds.
func emptyDepot(t *testing.T) {
	t.Helper()
	theDepot.drop()
	t.Cleanup(theDepot.drop)
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
		if d.classes[c].len() != 0 {
			t.Errorf("class %d holds a foreign buffer", c)
		}
	}
}

// The depot never holds more than its limit: what would cross the limit is
// dropped, a smaller buffer that still fits is kept, and a take makes room
// again.
func TestDepotRespectsItsCap(t *testing.T) {
	if theDepot.limit != depotCap {
		t.Fatalf("process-wide depot limit %d, want depotCap %d", theDepot.limit, depotCap)
	}
	const c = 20 // 1 MiB + slack
	d := depot{limit: 4 << 20}
	var list [][]byte
	for i := 0; i < 5; i++ {
		list = append(list, make([]byte, 0, classCap(c)))
	}
	refused := d.give(list)
	if d.classes[c].len() != 3 || d.bytes != 3*classCap(c) {
		t.Fatalf("a 4 MiB depot given five %d-byte buffers holds %d (%d bytes), want 3", classCap(c), d.classes[c].len(), d.bytes)
	}
	if refused != 2*classCap(c) {
		t.Errorf("give reported %d bytes refused, want the two buffers' %d", refused, 2*classCap(c))
	}
	d.give([][]byte{make([]byte, 0, classCap(c))})
	if d.classes[c].len() != 3 {
		t.Error("a buffer that crosses the limit was kept")
	}
	d.give([][]byte{make([]byte, 0, classCap(10))})
	if d.classes[10].len() != 1 {
		t.Error("a small buffer that fits under the limit was dropped")
	}
	d.take(c)
	d.give([][]byte{make([]byte, 0, classCap(c))})
	if d.classes[c].len() != 3 || d.bytes > d.limit {
		t.Errorf("after a take made room: %d buffers, %d bytes", d.classes[c].len(), d.bytes)
	}
}

// classBufs returns n empty buffers of class c.
func classBufs(c, n int) [][]byte {
	list := make([][]byte, n)
	for i := range list {
		list[i] = make([]byte, 0, classCap(c))
	}
	return list
}

// held is the number of buffers d lists in each class, for the classes
// named.
func held(d *depot, classes ...int) []int {
	n := make([]int, len(classes))
	for i, c := range classes {
		n[i] = d.classes[c].len()
	}
	return n
}

// A full depot refuses a newcomer of every sort — a pooled class from a
// drained home, a large class freed while its world runs, an object of a full
// kind — and keeps what it held; a drain adds up the bytes it refused.
func TestFullDepotRefusesTheNewcomer(t *testing.T) {
	emptyDepot(t)
	theDepot.limit = classCap(20) + classCap(23)
	t.Cleanup(func() { theDepot.limit = depotCap })
	var dr Drain
	dr.give(classBufs(20, 1))
	theDepot.putLarge(make([]byte, 1, classCap(23)))
	kind := NewKind[*depotObj]()
	kept := make([]*depotObj, objDepotCap)
	for i := range kept {
		kept[i] = new(depotObj)
		kind.Give(&dr, kept[i])
	}
	if dr.Refused != 0 {
		t.Fatalf("filling the depot refused %d bytes", dr.Refused)
	}

	var home BufPool
	home.Put(classBufs(12, 1)[0])
	dr.Home(&home)
	theDepot.putLarge(make([]byte, 1, classCap(24)))
	kind.Give(&dr, new(depotObj))

	if got := held(&theDepot, 12, 20, 23, 24); got[0] != 0 || got[1] != 1 || got[2] != 1 || got[3] != 0 {
		t.Errorf("classes 12/20/23/24 hold %v buffers, want [0 1 1 0]: what the depot held, and no newcomer", got)
	}
	if theDepot.bytes != theDepot.limit {
		t.Errorf("depot accounts %d bytes, want its full %d", theDepot.bytes, theDepot.limit)
	}
	if want := classCap(12) + int(unsafe.Sizeof(depotObj{})); dr.Refused != want {
		t.Errorf("Refused = %d, want the pooled buffer's and the object's %d bytes", dr.Refused, want)
	}
	if kind.l.len() != objDepotCap || kind.l.at(objDepotCap-1) != kept[objDepotCap-1] {
		t.Errorf("the full kind holds %d objects and not the last it kept", kind.l.len())
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
	for c := range theDepot.classes {
		seen := map[*byte]bool{}
		l := &theDepot.classes[c]
		for i := range l.len() {
			buf := l.at(i)
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

// depotObj stands for a pooled object kind: the depot keeps pointers to it,
// and batches of it.
type depotObj struct {
	n   int
	p   *int
	buf []byte
}

// FreeList keeps one law: Gets = Hits + Depot + the misses. A list that
// recycles its own objects, takes an earlier world's from the depot and
// allocates the rest counts each once, and Put zeroes what it lists.
func TestFreeListCounterLaw(t *testing.T) {
	emptyDepot(t)
	var earlier FreeList[depotObj]
	earlier.Put(new(depotObj))
	earlier.Put(new(depotObj))
	var dr Drain
	earlier.Drain(&dr)
	var l FreeList[depotObj]
	held := make([]*depotObj, 5) // two from the depot, three allocated
	for i := range held {
		held[i] = l.Get()
		held[i].n, held[i].buf = i+1, make([]byte, 1)
	}
	for _, x := range held {
		l.Put(x)
	}
	for range 4 {
		if x := l.Get(); x.n != 0 || x.p != nil || x.buf != nil {
			t.Fatalf("Get returned %+v, want a zeroed object", *x)
		}
	}
	c := l.Counters()
	if c.Hits != 4 || c.Depot != 2 || c.Gets != 9 {
		t.Errorf("counters %+v, want 9 requests: 4 hits, 2 from the depot, 3 allocated", c)
	}
	if misses := c.Gets - c.Hits - c.Depot; c.Hits == 0 || c.Depot == 0 || misses == 0 || c.Gets != c.Hits+c.Depot+misses {
		t.Errorf("counters %+v break Gets = Hits + Depot + misses, or leave a term empty", c)
	}
}

// Objects come back out in last-in order, per kind: a kind and the arrays of
// the same type do not mix, and a kind with nothing left says so.
func TestObjectDepotRoundTrip(t *testing.T) {
	emptyDepot(t)
	a, b := new(depotObj), new(depotObj)
	batch := make([]depotObj, 0, 4)
	var dr Drain
	var first, next FreeList[depotObj]
	first.Put(a)
	first.Put(b)
	first.Drain(&dr)
	GiveArray(&dr, batch)
	if dr.Refused != 0 {
		t.Fatalf("an empty depot refused %d bytes", dr.Refused)
	}
	for _, want := range []*depotObj{b, a} {
		if got := next.Get(); got != want {
			t.Fatalf("Get = %p; want %p from the depot", got, want)
		}
	}
	if got := next.Get(); got == a || got == b || next.Counters().Depot != 2 {
		t.Fatalf("an emptied kind served %p (counters %+v)", got, next.Counters())
	}
	got := TakeArray[depotObj](4)
	if cap(got) != 4 || len(got) != 4 || &got[:1][0] != &batch[:1][0] {
		t.Fatalf("the batch came back as len %d cap %d, or as other memory", len(got), cap(got))
	}
	first.Put(a)
	first.Drain(&dr)
	DropDepot()
	if next.Get(); next.Counters().Depot != 2 {
		t.Error("DropDepot left an object behind")
	}
}

// A drained home list keeps its array, cleared, and the list its owner goes
// on with (Kept) lists the entries it takes back in that array: none needs
// a new one. What Kept returns is zero but for that array, as an owner
// given to the depot must be (strict mode's check on the take).
func TestDrainedListArraysServeTheNextLists(t *testing.T) {
	emptyDepot(t)
	defer SetPoolStrict(SetPoolStrict(true))
	const n = 8
	class := classFor(1<<10) - poolMinShift
	var pool BufPool
	var objs FreeList[depotObj]
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = pool.Get(1 << 10)
	}
	for i, b := range bufs {
		pool.Put(b)
		objs.Put(new(depotObj))
		bufs[i] = nil
	}
	bufArray, objArray := &pool.classes[class][:1][0], &objs.free[:1][0]
	var dr Drain
	dr.Home(&pool)
	objs.Drain(&dr)
	if l := pool.classes[class]; len(l) != 0 || cap(l) < n || &l[:1][0] != bufArray || !zeroed(l) {
		t.Errorf("a drained pool's class list has len %d cap %d and is not its array, cleared", len(l), cap(l))
	}
	if l := objs.free; len(l) != 0 || cap(l) < n || &l[:1][0] != objArray || !zeroed(l) {
		t.Errorf("a drained free list has len %d cap %d and is not its array, cleared", len(l), cap(l))
	}

	owner := struct {
		pool BufPool
		objs FreeList[depotObj]
	}{pool.Kept(), objs.Kept()}
	if !zeroed(&owner) {
		t.Fatalf("the kept lists are not zero but for their arrays: %+v", owner)
	}
	for i := range bufs {
		bufs[i] = owner.pool.Get(1 << 10)
	}
	for _, b := range bufs {
		owner.pool.Put(b)
		owner.objs.Put(owner.objs.Get())
	}
	if l := owner.pool.classes[class]; &l[:1][0] != bufArray {
		t.Errorf("the kept pool listed %d buffers in a new array", len(l))
	}
	if l := owner.objs.free; &l[:1][0] != objArray {
		t.Errorf("the kept free list listed an object in a new array")
	}
}

// A kind holds at most objDepotCap objects, and the arrays of one element
// type at most maxArrayBytes; the depot keeps the ones it has and refuses the
// rest, whose bytes the drain adds up.
func TestObjectDepotRespectsItsCap(t *testing.T) {
	emptyDepot(t)
	list := make([]*depotObj, objDepotCap+3)
	for i := range list {
		list[i] = new(depotObj)
	}
	var dr Drain
	var l FreeList[depotObj]
	for i, x := range list {
		l.Put(x)
		if i == 0 {
			l.Drain(&dr)
		}
	}
	l.Drain(&dr)
	if want := 3 * int(unsafe.Sizeof(depotObj{})); dr.Refused != want {
		t.Errorf("refused %d bytes, want %d (three objects)", dr.Refused, want)
	}
	GiveArray(&dr, make([]depotObj, 0, 5))
	if got := TakeArray[depotObj](4); cap(got) != 5 {
		t.Error("a full pointer kind refused an array of its element type")
	}
	for i := objDepotCap - 1; i >= 0; i-- {
		if got := l.Get(); got != list[i] {
			t.Fatalf("object %d: the depot did not keep the first %d it was given", i, objDepotCap)
		}
	}
	if l.Get(); l.Counters().Depot != objDepotCap {
		t.Error("the depot served more objects than its cap")
	}
	var full Drain
	batch := make([]depotObj, 0, 2)
	size := 2 * int(unsafe.Sizeof(depotObj{}))
	for range maxArrayBytes / size {
		GiveArray(&full, batch)
	}
	GiveArray(&full, batch)
	if full.Refused != size {
		t.Errorf("a refused batch of two counted %d bytes, want %d", full.Refused, size)
	}
}

// Under poolStrict a take checks that nothing wrote to the object after its
// world gave it away: through a kept pointer, or into a kept array.
func TestObjectDepotStrict(t *testing.T) {
	emptyDepot(t)
	was := SetPoolStrict(true)
	t.Cleanup(func() { SetPoolStrict(was) })
	var dr Drain
	var l FreeList[depotObj]
	clean, stale := new(depotObj), new(depotObj)
	l.Put(clean)
	l.Put(stale)
	l.Drain(&dr)
	stale.buf = make([]byte, 1) // a world that is over writes into the next one's object
	mustPanic(t, "taking an object that was written to", func() { l.Get() })
	if got := l.Get(); got != clean {
		t.Error("a clean object did not come out after the stale one")
	}
	batch := make([]depotObj, 1, 3)
	GiveArray(&dr, batch)
	batch[:3][2].n = 1 // past the batch's length, inside its capacity
	mustPanic(t, "taking a batch that was written to", func() { TakeArray[depotObj](2) })
}

// An object that goes to the depot may keep arrays, Cleared: a strict take
// finds it zero, and finds a slot written since. A direction drained keeps
// its array the same way, for the owner that goes with it.
func TestObjectDepotKeptArrays(t *testing.T) {
	emptyDepot(t)
	defer SetPoolStrict(SetPoolStrict(true))
	var dr Drain
	kind := NewKind[*depotObj]()
	kept, written := &depotObj{buf: make([]byte, 0, 8)}, &depotObj{buf: make([]byte, 0, 8)}
	kind.Give(&dr, kept)
	kind.Give(&dr, written)
	written.buf[:8][3] = 1 // a world that is over writes into an array its object kept
	mustPanic(t, "taking an object whose kept array was written to", func() { TakeOrNew(kind) })
	if got := TakeOrNew(kind); got != kept || cap(got.buf) != 8 {
		t.Errorf("TakeOrNew = %p with a %d-byte array, want %p with its 8", got, cap(got.buf), kept)
	}
	if got := TakeOrNew(kind); got == kept || got == written || got.buf != nil {
		t.Errorf("an emptied kind served %p (%+v), want a new object", got, *got)
	}

	var home BufPool
	var dir DirPool
	var objs DirList[depotObj]
	dir.Hold(home.Get(64))
	objs.Retire(new(FreeList[depotObj]), new(depotObj))
	dr.Dir(&dir)
	objs.Drain(&dr)
	if len(dir.free) != 0 || cap(dir.free) == 0 || dir.free[:1][0] != nil {
		t.Errorf("a drained DirPool kept len %d cap %d, want an empty, cleared array", len(dir.free), cap(dir.free))
	}
	if len(objs.free) != 0 || cap(objs.free) == 0 || objs.free[:1][0] != nil {
		t.Errorf("a drained DirList kept len %d cap %d, want an empty, cleared array", len(objs.free), cap(objs.free))
	}
}

// Worlds that run side by side take and give objects at once: under -race,
// eight goroutines leave every object with one owner.
func TestObjectDepotConcurrentUse(t *testing.T) {
	emptyDepot(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				var l FreeList[depotObj]
				held := make([]*depotObj, 1+(g+round)%8)
				for i := range held {
					x := l.Get()
					if x.n != 0 {
						t.Errorf("goroutine %d: a depot object held %d", g, x.n)
					}
					x.n = g + 1
					held[i] = x
				}
				for _, x := range held {
					if x.n != g+1 {
						t.Errorf("goroutine %d: an object it holds was written by another", g)
					}
					l.Put(x)
				}
				var dr Drain
				l.Drain(&dr)
			}
		}(g)
	}
	wg.Wait()
}

// A drain that holds the depot's lock gives through it without locking again:
// its gives of every kind, buffers included, land as if each had locked, a
// handle and the generic calls reach the same list, and DropDepot empties
// the list a handle holds without orphaning it.
func TestDrainLockBatchesGives(t *testing.T) {
	emptyDepot(t)
	kind := NewKind[*depotObj]()
	objs := []*depotObj{new(depotObj), new(depotObj), new(depotObj)}
	var pool BufPool
	pool.Put(make([]byte, 64))
	var dr Drain
	dr.Lock()
	kind.Give(&dr, objs[0])
	GiveObjects(&dr, objs[1:])
	dr.Home(&pool)
	dr.Unlock()
	if got, ok := TakeObject[*depotObj](); !ok || got != objs[2] {
		t.Fatalf("TakeObject = %p (%v), want the last object given, %p", got, ok, objs[2])
	}
	for _, want := range []*depotObj{objs[1], objs[0]} {
		if got, ok := kind.Take(); !ok || got != want {
			t.Fatalf("Kind.Take = %p (%v), want %p", got, ok, want)
		}
	}
	if buf := theDepot.take(6); cap(buf) != 64 {
		t.Errorf("the buffer given under the lock came back with cap %d, want 64", cap(buf))
	}
	kind.Give(&dr, objs[0])
	DropDepot()
	if _, ok := kind.Take(); ok {
		t.Error("DropDepot left an object on a handle's list")
	}
	kind.Give(&dr, objs[0])
	if got, ok := TakeObject[*depotObj](); !ok || got != objs[0] {
		t.Error("after DropDepot a handle and TakeObject no longer share the kind's list")
	}
}

// BenchmarkDepotTakeGive reports ns per object through the depot's object
// lists, one way and the other: a take through a Kind and through the
// type-keyed lookup that TakeObject does, and a give inside a drain that
// holds the lock (Drain.Lock) and one that locks per object.
func BenchmarkDepotTakeGive(b *testing.B) {
	const batch = 4096
	objs := make([]*depotObj, batch)
	for i := range objs {
		objs[i] = new(depotObj)
	}
	kind := NewKind[*depotObj]()
	fill := func(b *testing.B) {
		b.StopTimer()
		var dr Drain
		dr.Lock()
		for _, x := range objs {
			kind.Give(&dr, x)
		}
		dr.Unlock()
		b.StartTimer()
	}
	for _, tc := range []struct {
		name string
		take func()
	}{
		{"take=kind", func() { kind.Take() }},
		{"take=lookup", func() { TakeObject[*depotObj]() }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			theDepot.drop()
			for i := 0; i < b.N; i++ {
				if i%batch == 0 {
					fill(b)
				}
				tc.take()
			}
			b.StopTimer()
			theDepot.drop()
		})
	}
	for _, locked := range []bool{true, false} {
		name := "give=single"
		if locked {
			name = "give=locked"
		}
		b.Run(name, func(b *testing.B) {
			theDepot.drop()
			var dr Drain
			for i := 0; i < b.N; i++ {
				if i%batch == 0 {
					if locked && i > 0 {
						dr.Unlock()
					}
					b.StopTimer()
					theDepot.drop()
					b.StartTimer()
					if locked {
						dr.Lock()
					}
				}
				kind.Give(&dr, objs[i%batch])
			}
			if locked && b.N > 0 {
				dr.Unlock()
			}
			b.StopTimer()
			theDepot.drop()
		})
	}
}

// An array goes back under its capacity's class, and a take looks from the
// smallest class that serves n upward: an array a caller grew past its class
// serves the next caller of a size that class serves, a short one does not
// serve a longer take, and a new array has room for a power of two. A give
// from outside any drain and one under Drain.Lock reach the same lists, and
// arrays of another element type are others.
func TestArrayDepotClasses(t *testing.T) {
	emptyDepot(t)
	if a := TakeArray[int](5); len(a) != 5 || cap(a) != 8 {
		t.Fatalf("a new array for 5 entries: len %d cap %d, want 5 and 8", len(a), cap(a))
	}
	small, grown := make([]int, 3, 4), make([]int, 45)
	small[0], grown[44] = 1, 1
	GiveArray(nil, grown)
	var dr Drain
	dr.Lock()
	GiveArray(&dr, small)
	dr.Unlock()
	GiveArray(nil, make([]int64, 64))
	if dr.Refused != 0 {
		t.Fatalf("an empty depot refused %d bytes", dr.Refused)
	}
	if a := TakeArray[int](33); &a[0] == &grown[0] {
		t.Error("a 45-entry array served a take of 33, which its class does not")
	}
	a := TakeArray[int](17)
	if &a[0] != &grown[0] || len(a) != 17 || !zeroed(a[:0]) {
		t.Fatalf("a take of 17 got len %d cap %d, not the grown array, cleared", len(a), cap(a))
	}
	if b := TakeArray[int](1); &b[0] != &small[0] || len(b) != 1 || b[0] != 0 {
		t.Error("a take of 1 did not get the smallest array, cleared")
	}
	if c := TakeArray[int](64); cap(c) != 64 || c[63] != 0 {
		t.Error("a take of 64 ints found no new array of 64")
	}
	if TakeArray[int](0) != nil {
		t.Error("a take of nothing returned an array")
	}
}

// Under poolStrict an array written after it was given back panics at the
// next take, and one given twice panics at the second give; so does a
// generator given back twice. Generators come back newest first.
func TestArrayAndRandDepotStrict(t *testing.T) {
	emptyDepot(t)
	defer SetPoolStrict(SetPoolStrict(true))
	kept := make([]*depotObj, 2, 8)
	GiveArray(nil, kept)
	kept[:8][5] = new(depotObj)
	mustPanic(t, "taking an array that was written to", func() { TakeArray[*depotObj](8) })
	twice := make([]*depotObj, 4)
	GiveArray(nil, twice)
	mustPanic(t, "giving an array back twice", func() { GiveArray(nil, twice) })
	if got := TakeArray[*depotObj](4); &got[0] != &twice[0] {
		t.Error("the array given once did not come back")
	}
	g, h := NewRand(1), NewRand(2)
	FreeRand(g)
	FreeRand(h)
	mustPanic(t, "giving a generator back twice", func() { FreeRand(g) })
	if got := NewRand(3); got != h {
		t.Error("NewRand did not take the newest generator given back")
	}
}

// Worlds that run side by side take and give generators at once: under
// -race, eight goroutines each get a generator no other holds, in the state
// its seed names.
func TestRandDepotConcurrentUse(t *testing.T) {
	emptyDepot(t)
	var want [8]int64
	for g := range want {
		want[g] = rand.New(rand.NewSource(int64(g))).Int63()
	}
	var wg sync.WaitGroup
	for g := range want {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for range 200 {
				r := NewRand(int64(g))
				if got := r.Int63(); got != want[g] {
					t.Errorf("goroutine %d: first draw %d, want %d", g, got, want[g])
				}
				FreeRand(r)
			}
		}(g)
	}
	wg.Wait()
}
