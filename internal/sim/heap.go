package sim

import "math/bits"

// event is the payload of one pending event: 24 bytes in a slot of the
// engine's slab. Its (t, seq) key and its flags live in the queue entry
// (hkey), so ordering never moves the payload. A callback event runs fnA(arg)
// in scheduler context: AtArg passes a static function and a caller-pooled
// argument, so hot paths allocate no closure per event, and At stores its
// func() in arg behind the callFn trampoline. A proc event (fnA == nil)
// carries its *Proc in arg and hands control to that process.
type event struct {
	fnA func(any)
	arg any
}

// callFn is the trampoline that runs an At/AtBackground callback stored
// in an event's arg. A func value is one pointer, so storing it in an any
// allocates nothing.
func callFn(fn any) { fn.(func())() }

// isCallback reports whether the event runs in scheduler context.
func (e *event) isCallback() bool { return e.fnA != nil }

// proc is the process a proc event wakes; nil for callbacks.
func (e *event) proc() *Proc {
	p, _ := e.arg.(*Proc)
	return p
}

// hkey is one queue entry: the (t, seq) ordering key, the slab slot holding
// the event, and the event's flags, which fill what would otherwise be the
// key's padding. seq is the FIFO tie-break among equal-time events that keeps
// runs deterministic. Sifting moves these 24 bytes, never the payload.
type hkey struct {
	t    Time
	seq  uint64
	slot int32
	// timer is true for Sleep/Advance/start wakes, false for Unpark wakes.
	timer bool
	// background marks a pre-scheduled alarm (AtBackground) that does not
	// count against quiescence: a fault injector's crash wake parked far in
	// the future is not an in-flight message, so it must not hold back an
	// AtQuiesce callback.
	background bool
}

func (a hkey) before(b hkey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// heapArity is the fan-out of the event heap. A 4-ary heap halves the tree
// depth of a binary heap, trading slightly wider sift-down comparisons
// (cache-friendly: four siblings share a cache line or two) for many fewer
// levels on push — the dominant operation, since most pushes land near the
// bottom. Pop order is identical for any arity because (t, seq) is a total
// order.
const heapArity = 4

// eventQueue is a hand-rolled d-ary min-heap of keys ordered by (t, seq). The
// payloads stay in the engine's slab; the queue owns only keys, so a sift
// moves 24 bytes. A concrete heap avoids the interface boxing of
// container/heap on the engine hot path, and its key array is recycled, so a
// queue at its working size allocates nothing.
type eventQueue struct {
	keys []hkey
	// maxDepth is the high-water mark of pending events, for capacity
	// planning (Stats.MaxHeapDepth).
	maxDepth int
	// bg counts pending background events, so the dispatch loop can tell
	// "only far-future alarms remain" (len() == bg) from real pending work.
	bg int
}

func (q *eventQueue) len() int { return len(q.keys) }

// push queues the event whose slot and flags k carries.
func (q *eventQueue) push(k hkey) {
	if k.background {
		q.bg++
	}
	q.keys = append(q.keys, k)
	if len(q.keys) > q.maxDepth {
		q.maxDepth = len(q.keys)
	}
	i := len(q.keys) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !k.before(q.keys[parent]) {
			break
		}
		q.keys[i] = q.keys[parent]
		i = parent
	}
	q.keys[i] = k
}

// pop removes the earliest key. Its slot still holds the event.
func (q *eventQueue) pop() hkey {
	top := q.keys[0]
	n := len(q.keys) - 1
	last := q.keys[n]
	q.keys = q.keys[:n]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		end := first + heapArity
		if end > n {
			end = n
		}
		smallest := first
		for c := first + 1; c < end; c++ {
			if q.keys[c].before(q.keys[smallest]) {
				smallest = c
			}
		}
		if !q.keys[smallest].before(last) {
			break
		}
		q.keys[i] = q.keys[smallest]
		i = smallest
	}
	if n > 0 {
		q.keys[i] = last
	}
	if top.background {
		q.bg--
	}
	return top
}

// minTime reports the earliest pending event time; ok is false when empty.
func (q *eventQueue) minTime() (Time, bool) {
	if len(q.keys) == 0 {
		return 0, false
	}
	return q.keys[0].t, true
}

// Slab geometry: segment k holds firstSeg<<k events, so slot s lives in
// segment bits.Len(s+firstSeg)-segShift-1 and slabSegs segments cover every
// int32 slot.
const (
	segShift = 3
	firstSeg = 1 << segShift
	slabSegs = 32 - segShift
)

// slab holds every pending event payload of an engine. It is an array of
// segments that never move, so a slot's address is stable, growth copies
// nothing and leaves no garbage, and the bytes held are at most twice the most
// slots ever in use. A vacant slot is on the free
// list; a popped event's slot goes back to it at once (vacate), and put
// reuses the most recently vacated slot first.
type slab struct {
	// first is segment 0. The table of the others is made with segment 1:
	// the engine of a small world, whose events fit in one segment, never
	// pays for it.
	first *[firstSeg]event
	segs  *[slabSegs][]event
	// next is the number of slots ever handed out: slots below it belong to
	// a segment.
	next int32
	free []int32
}

// at is the event in slot s.
func (s *slab) at(slot int32) *event {
	if slot < firstSeg {
		return &s.first[slot]
	}
	i := uint32(slot) + firstSeg
	k := bits.Len32(i) - segShift - 1
	return &s.segs[k][i-firstSeg<<k]
}

// carve hands out the slot past the last one, making its segment first when
// the slot opens one. An engine's first slot takes a whole slab, with the
// segments it held, from an engine that ended before (Recycle), when there
// is one; a segment that slab already has is not made again.
func (s *slab) carve() int32 {
	slot := s.next
	switch i := uint32(slot) + firstSeg; {
	case slot == 0:
		if *s = takeSlab(); s.first == nil {
			s.first = new([firstSeg]event)
		}
	case i&(i-1) == 0:
		if s.segs == nil {
			s.segs = new([slabSegs][]event)
		}
		if k := bits.Len32(i) - segShift - 1; s.segs[k] == nil {
			s.segs[k] = make([]event, firstSeg<<k)
		}
	}
	s.next++
	return slot
}

// put stores ev in a vacant slot — the most recently vacated, else a new
// one — and returns the slot.
func (s *slab) put(ev event) int32 {
	var slot int32
	if n := len(s.free) - 1; n >= 0 {
		slot = s.free[n]
		s.free = s.free[:n]
	} else {
		slot = s.carve()
	}
	*s.at(slot) = ev
	return slot
}

// vacate frees slot and returns the event it held, dropping the slot's
// references.
func (s *slab) vacate(slot int32) event {
	p := s.at(slot)
	ev := *p
	*p = event{}
	s.free = append(s.free, slot)
	return ev
}
