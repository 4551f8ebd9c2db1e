package sim

import "cmp"

// event is the payload of one pending-event queue entry; its (t, seq) key
// lives in the queue's heap (hkey), so ordering never moves the payload.
// Exactly one of fn / fnA / proc is used: fn and fnA events run a callback in
// scheduler context (fnA with a caller-supplied argument, so hot paths can
// recycle a static function plus a pooled argument struct instead of
// allocating a closure per event), proc events hand control to a simulated
// process.
type event struct {
	fn    func()
	fnA   func(any)
	arg   any
	proc  *Proc
	timer bool // true for Sleep/Advance/start wakes, false for Unpark wakes
	// background marks a pre-scheduled alarm (AtBackground) that does not
	// count against quiescence: a fault injector's crash wake parked far in
	// the future is not an in-flight message, so it must not hold back an
	// AtQuiesce callback.
	background bool

	// res lists the resources a callback event touches, for epoch grouping
	// (AtRes/AtArg). nres is the live prefix of res; untagged events
	// (nres == 0) are treated as touching Global. Proc events ignore these
	// fields: their footprint comes from the proc's FootprintFn.
	res  [4]Res
	nres uint8
}

// isCallback reports whether the event runs in scheduler context.
func (e *event) isCallback() bool { return e.fn != nil || e.fnA != nil }

// invoke runs a callback event.
func (e *event) invoke() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.fnA(e.arg)
}

// hkey is one heap entry: the (t, seq) ordering key plus the slab slot
// holding the event. seq is the FIFO tie-break among equal-time events that
// keeps runs deterministic. Sifting moves these 24 bytes, never the payload.
type hkey struct {
	t    Time
	seq  uint64
	slot int32
}

func (a hkey) before(b hkey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// compare orders keys by (t, seq) for sorting.
func (a hkey) compare(b hkey) int {
	if a.t != b.t {
		return cmp.Compare(a.t, b.t)
	}
	return cmp.Compare(a.seq, b.seq)
}

// heapArity is the fan-out of the event heap. A 4-ary heap halves the tree
// depth of a binary heap, trading slightly wider sift-down comparisons
// (cache-friendly: four siblings share a cache line or two) for many fewer
// levels on push — the dominant operation, since most pushes land near the
// bottom. Pop order is identical for any arity because (t, seq) is a total
// order.
const heapArity = 4

// eventQueue is a hand-rolled d-ary min-heap of keys ordered by (t, seq) over
// a slab of event payloads. A concrete heap avoids the interface boxing of
// container/heap on the engine hot path; the slab and its free list are
// recycled, so a queue at its working size allocates nothing.
type eventQueue struct {
	keys []hkey
	slab []event
	free []int32 // vacant slab slots
	// maxDepth is the high-water mark of pending events, for capacity
	// planning (Stats.MaxHeapDepth).
	maxDepth int
	// bg counts pending background events, so the dispatch loop can tell
	// "only far-future alarms remain" (len() == bg) from real pending work.
	bg int
}

func (q *eventQueue) len() int { return len(q.keys) }

// store places ev in a slab slot without queueing it (spilled events wait
// there until commit pushes their key).
func (q *eventQueue) store(ev event) int32 {
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[s] = ev
		return s
	}
	q.slab = append(q.slab, ev)
	return int32(len(q.slab) - 1)
}

func (q *eventQueue) push(t Time, seq uint64, ev event) {
	q.pushKey(hkey{t: t, seq: seq, slot: q.store(ev)})
}

// pushKey queues an event already stored in the slab.
func (q *eventQueue) pushKey(k hkey) {
	if q.slab[k.slot].background {
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

// pop removes the earliest event, vacating its slab slot.
func (q *eventQueue) pop() (hkey, event) {
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
	ev := q.slab[top.slot]
	q.slab[top.slot] = event{} // release references held by the vacated slot
	q.free = append(q.free, top.slot)
	if ev.background {
		q.bg--
	}
	return top, ev
}

// minTime reports the earliest pending event time; ok is false when empty.
func (q *eventQueue) minTime() (Time, bool) {
	if len(q.keys) == 0 {
		return 0, false
	}
	return q.keys[0].t, true
}

// reset empties the queue, keeping its backing arrays (and its depth
// high-water mark) for reuse.
func (q *eventQueue) reset() {
	clear(q.slab)
	q.keys, q.slab, q.free = q.keys[:0], q.slab[:0], q.free[:0]
	q.bg = 0
}
