package mpi

// The rank lifecycle and the collective algorithms, written once, as
// continuations: a step function that keeps its position in a struct, returns
// false after a blocking primitive fired and is called again after the wake.
//
// Two kinds of caller run them. A machine world (World.RunMachine) hands each
// rank to the engine as a sim.Machine: a rank is one arena slot — no
// goroutine, stack, or coroutine — and a step that returns false unwinds to
// the dispatch loop with sim.More. A blocking body
// (World.Run) keeps its goroutine, and the blocking collectives of coll.go,
// comm.go and coll_hier.go run the same steppers from their own stack with
// `for !m.step(...) {}`: there the primitive blocked for real, so false only
// means "a wake went by". Nothing else differs — what is left of "blocking
// versus machine" is Proc.Advance (a machine's is a pure clock bump, see
// sim/proc.go) and the r.machine branch of bindEnvelope (pt2pt.go).
//
// Three primitives carry the steppers:
//
//   - msend: isendPrep/isendDispatch (pt2pt.go) split isendCtx around its pair
//     claim. msend claims between the two halves; if the claim had to regroup
//     on a machine rank (Proc.Deferred), it returns false and dispatches next
//     epoch at the same virtual time. A blocking rank yields inside
//     claimPair and carries on, exactly as isendCtx does inside the protocol
//     entry, whose own claimPair is then a no-op (Request.hasClaim).
//   - waitFree is one pass of the rank's wait loop (waitStep, rank.go) on one
//     request the stepper owns: drive progress until the request is done or
//     the rank parks, then hand the request back to the pool and clear the
//     slot. Every stepper wait is one, so a collective allocates no handle
//     once the rank's request list is warm.
//   - receives (irecvCtx) never block the caller, so steppers post them
//     directly. A rendezvous match whose receive-side claim finds the pair
//     outside the current epoch group (bindEnvelope, usually mid-sweep) parks
//     the transfer on a machine rank; the next waitStep pass regroups and
//     starts it.
//
// Every blocking primitive is the last action before its stepper returns
// false, so sim.Machine's block-last contract holds for a machine rank; a
// blocking driver runs the same stepper on its own stack, where the primitive
// blocks for real.
//
// The group-capable steppers (barrier, bcast, reduce, recursive doubling)
// take who they run over as a step argument (group, coll.go), never as
// state: a machine rank's accounted footprint is its stepper struct.

import (
	"reflect"

	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// Program is a rank body written as a continuation machine: Step runs each
// time the rank is dispatched and must return sim.More after invoking a
// blocking primitive (which is always the last action of the helpers below),
// sim.Done when the body is complete. State lives in the Program's fields;
// there is no stack to resume. Programs abort the job via Rank.Abort and are
// subject to fault injection exactly like blocking bodies.
type Program interface {
	Step(r *Rank) sim.Flow
}

// RunMachine is World.Run for machine-native rank bodies: mk builds the
// Program for each rank. Blocking bodies keep their goroutine; a machine
// world spends one arena slot per rank and no goroutine, stack, or coroutine —
// the difference Stats.PeakProcBytes accounts.
func (w *World) RunMachine(mk func(rank int) Program) error {
	return w.run(true, mk)
}

// rankMachine is the one rank lifecycle, of blocking and machine bodies
// alike (World.run): crash alarm, MPI_Init split around the PMI barrier, the
// run-level barrier, restore, the body, and the finalize bookkeeping.
type rankMachine struct {
	w    *World
	r    *Rank
	prog Program
	gen  int
	ph   uint8 // 0 pre-init, 1 init barrier, 2 run barrier, 3 body
}

// bodyProg is a blocking rank body as a Program of one step, which keeps
// what the body returned for stepBody to report.
type bodyProg struct {
	body func(r *Rank) error
	err  error
}

func (b *bodyProg) Step(r *Rank) sim.Flow {
	b.err = b.body(r)
	return sim.Done
}

// MachineBytes reports the adapter plus its program (steady-state worst
// case for programs that lazily allocate phases) so the engine's accounting
// charges machine ranks for the state they actually keep alive.
func (m *rankMachine) MachineBytes() int {
	n := int(reflect.TypeOf(*m).Size())
	if sr, ok := m.prog.(sim.SizeReporter); ok {
		return n + sr.MachineBytes()
	}
	if t := reflect.TypeOf(m.prog); t != nil {
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		n += int(t.Size())
	}
	return n
}

func (m *rankMachine) Step(p *sim.Proc) sim.Flow {
	r, w := m.r, m.w
	switch m.ph {
	case 0:
		r.p = p
		if at, ok := w.inj.CrashTime(r.rank); ok {
			r.hasCrash, r.crashAt = true, at
			// The victim may be parked at its death time; schedule a wake
			// so the crash fires at the planned instant, not whenever the
			// rank happens to run next. A background alarm: a death
			// pending far in the future must not block the quiescence
			// cut a checkpoint barrier commits at.
			w.Eng.AtBackground(at, func() { p.UnparkAt(at) })
		}
		if err := r.initPre(); err != nil {
			// Init failures are always fatal: the job never formed, so
			// there is nothing to degrade to (matching MPI_Init semantics,
			// where error handlers attach only after init returns).
			p.Fatalf("MPI_Init: %v", err)
		}
		m.gen = w.pmiArrive(r)
		m.ph = 1
		fallthrough
	case 1:
		// One pass of the PMI wait per step; the releaser falls straight
		// through (its arrival bumped pmiGen past its own gen).
		if w.pmiGen == m.gen {
			p.Park()
			return sim.More
		}
		if err := r.initPost(); err != nil {
			p.Fatalf("MPI_Init: %v", err)
		}
		m.gen = w.pmiArrive(r)
		m.ph = 2
		fallthrough
	case 2:
		if w.pmiGen == m.gen {
			p.Park()
			return sim.More
		}
		// Init shares job-global state (PMI, detector segment, device
		// discovery); only past this barrier does the rank's footprint
		// narrow from Global to its claimed pairs.
		r.parallelReady = true
		if w.restored != nil {
			w.restoreRank(r)
		}
		w.bodyStart[r.rank] = p.Now()
		m.ph = 3
		fallthrough
	default:
		flow, err := m.stepBody()
		if err == nil && flow == sim.More {
			return sim.More
		}
		w.bodyEnd[r.rank] = p.Now()
		if w.Prof != nil {
			w.Prof.Ranks[r.rank].AppTime = w.bodyEnd[r.rank] - w.bodyStart[r.rank]
		}
		if err != nil {
			// Outside stepBody's recover: under ErrorsAreFatal failRank
			// aborts the engine by panicking, which must propagate.
			w.failRank(r, err)
			return sim.Done
		}
		r.finalizeCheck()
		return sim.Done
	}
}

// stepBody runs one Program step, converting a crash unwind into the body's
// error: a fault-injected crash unwinds the step as a crashAbort panic and
// surfaces here instead of as a process panic.
func (m *rankMachine) stepBody() (flow sim.Flow, err error) {
	defer func() {
		if v := recover(); v != nil {
			ca, ok := v.(crashAbort)
			if !ok {
				panic(v)
			}
			flow, err = sim.Done, ca.err
		}
	}()
	flow = m.prog.Step(m.r)
	if b, ok := m.prog.(*bodyProg); ok {
		err = b.err
	}
	return flow, err
}

// msend drives one isend across steps: prep and trace once, pre-claim the
// pair, and if the claim deferred a machine rank to the next epoch group
// (regroup yield) retry the dispatch there — the same virtual instant a
// blocking rank's claim resumes at. step returns true once the send
// is handed to its protocol (req is then live); false means the step's
// blocking primitive fired and a machine must unwind with sim.More.
type msend struct {
	req  *Request
	path core.Path
	pend bool
}

func (m *msend) step(r *Rank, dst, tag, ctx int, data []byte) bool {
	if !m.pend {
		req, path, done := r.isendPrep(dst, tag, ctx, data)
		m.req, m.path = req, path
		if done {
			return true // self-send: completed inline
		}
		r.claimPair(req, path == core.PathHCAEager || path == core.PathHCARndv)
		if r.p.Deferred() {
			m.pend = true
			return false
		}
	} else {
		m.pend = false
	}
	r.isendDispatch(m.req, m.path)
	return true
}

// waitFree is the stepper wait on the request in *slot: false until it is
// done; then the request goes back to the rank's pool (putReq keeps failed
// requests and HCA-rendezvous sends out) and the slot is cleared, so no
// stepper keeps a handle that another operation may already be reusing.
func (r *Rank) waitFree(slot **Request) bool {
	req := *slot
	if !r.waitStep(func() bool { return req.done }) {
		return false
	}
	r.putReq(req)
	*slot = nil
	return true
}

// msr is a combined send and receive: post the receive, start the send,
// wait receive then send.
type msr struct {
	rq  *Request
	snd msend
	st  uint8
}

func (m *msr) step(r *Rank, dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte, ctx int) bool {
	switch m.st {
	case 0:
		m.rq = r.irecvCtx(src, recvTag, ctx, recvBuf)
		m.st = 1
		fallthrough
	case 1:
		if !m.snd.step(r, dst, sendTag, ctx, sendData) {
			return false
		}
		m.st = 2
		fallthrough
	case 2:
		if !r.waitFree(&m.rq) {
			return false
		}
		m.st = 3
		fallthrough
	default:
		if !r.waitFree(&m.snd.req) {
			return false
		}
		*m = msr{}
		return true
	}
}

// finishColl ends a collective stepper: it retires the scratch buffer, resets
// the stepper for reuse and reports completion. A crash unwinds a blocking
// body past it, leaving the scratch to the GC — the safe side of FreeMem's
// rule, since a transfer may still be in flight toward the buffer.
func finishColl[M any](r *Rank, m *M, tmp []byte) bool {
	r.FreeMem(tmp)
	var zero M
	*m = zero
	return true
}

// mbarrier is the dissemination barrier: round k exchanges an empty message
// with the members k places away, k doubling.
type mbarrier struct {
	tag int
	k   int
	rq  *Request
	snd msend
	st  uint8
}

func (m *mbarrier) step(r *Rank, g *group) bool {
	if m.st == 0 {
		m.tag = g.nextTag()
		m.k = 1
		m.st = 1
	}
	for m.k < g.n {
		dst := g.world((g.me + m.k) % g.n)
		src := g.world((g.me - m.k + g.n) % g.n)
		switch m.st {
		case 1:
			m.rq = r.irecvCtx(src, m.tag, g.ctx, nil)
			m.st = 2
			fallthrough
		case 2:
			if !m.snd.step(r, dst, m.tag, g.ctx, nil) {
				return false
			}
			m.st = 3
			fallthrough
		case 3:
			if !r.waitFree(&m.snd.req) {
				return false
			}
			m.st = 4
			fallthrough
		default:
			if !r.waitFree(&m.rq) {
				return false
			}
			m.k <<= 1
			m.st = 1
		}
	}
	*m = mbarrier{}
	return true
}

// mreduce is the binomial-tree reduce into group rank root; non-root buffers
// are scratch.
type mreduce struct {
	tag   int
	vrank int
	mask  int
	tmp   []byte
	rq    *Request
	snd   msend
	st    uint8 // 0 at loop position, 1 waiting parent send, 2 waiting child recv
	init  bool
}

func (m *mreduce) step(r *Rank, g *group, root int, buf []byte, op ReduceOp) bool {
	if g.n == 1 {
		return true
	}
	if !m.init {
		m.tag = g.nextTag()
		m.vrank = (g.me - root + g.n) % g.n
		m.mask = 1
		m.tmp = r.AllocMem(len(buf))
		m.init = true
	}
	abs := func(v int) int { return g.world((v + root) % g.n) }
	for m.mask < g.n {
		if m.vrank&m.mask != 0 {
			// Send to the parent; this rank's part is done.
			if m.st == 0 {
				if !m.snd.step(r, abs(m.vrank-m.mask), m.tag, g.ctx, buf) {
					return false
				}
				m.st = 1
			}
			if !r.waitFree(&m.snd.req) {
				return false
			}
			return finishColl(r, m, m.tmp)
		}
		if m.vrank+m.mask < g.n {
			if m.st == 0 {
				m.rq = r.irecvCtx(abs(m.vrank+m.mask), m.tag, g.ctx, m.tmp)
				m.st = 2
			}
			if !r.waitFree(&m.rq) {
				return false
			}
			r.chargeReduce(len(buf))
			op(buf, m.tmp)
		}
		m.mask <<= 1
		m.st = 0
	}
	return finishColl(r, m, m.tmp)
}

// mbcast is the binomial-tree broadcast from group rank root.
type mbcast struct {
	tag   int
	vrank int
	mask  int
	rq    *Request
	snd   msend
	ph    uint8 // 0 init, 1 receive walk, 2 forward walk
	st    uint8 // 0 at position, 1 waiting
}

func (m *mbcast) step(r *Rank, g *group, root int, data []byte) bool {
	if g.n == 1 {
		return true
	}
	abs := func(v int) int { return g.world((v + root) % g.n) }
	if m.ph == 0 {
		m.tag = g.nextTag()
		m.vrank = (g.me - root + g.n) % g.n
		m.mask = 1
		m.ph = 1
	}
	if m.ph == 1 {
		// Walk up to this rank's lowest set bit: that is the level at which
		// it receives from its parent; the root never receives.
		for m.mask < g.n {
			if m.vrank&m.mask != 0 {
				if m.st == 0 {
					m.rq = r.irecvCtx(abs(m.vrank-m.mask), m.tag, g.ctx, data)
					m.st = 1
				}
				if !r.waitFree(&m.rq) {
					return false
				}
				break
			}
			m.mask <<= 1
		}
		m.mask >>= 1
		m.st = 0
		m.ph = 2
	}
	// Forward to children at every level below.
	for m.mask > 0 {
		if m.vrank+m.mask < g.n {
			if m.st == 0 {
				if !m.snd.step(r, abs(m.vrank+m.mask), m.tag, g.ctx, data) {
					return false
				}
				m.st = 1
			}
			if !r.waitFree(&m.snd.req) {
				return false
			}
		}
		m.mask >>= 1
		m.st = 0
	}
	*m = mbcast{}
	return true
}

// mrd is the recursive-doubling allreduce: log2(P) full-buffer exchanges,
// with the standard fold of the surplus members of a non-power-of-two group
// into the power-of-two one (pof2, the largest not above the group's size).
// Latency-optimal; the selector's choice for small buffers, and the only
// allreduce of communicators. The fold and unfold states are inlined, reusing
// one send submachine and one request slot, to keep the struct lean — a
// machine rank's accounted footprint is this struct.
type mrd struct {
	tag     int
	rem     int
	newRank int
	mask    int
	tmp     []byte
	rq      *Request
	snd     msend
	sr      msr
	st      uint8 // 0 init, 1 fold send, 2 fold recv, 3 exchange, 4 unfold recv, 5 unfold send
	wait    bool  // inner position: request posted, waiting completion
}

func (m *mrd) step(r *Rank, g *group, buf []byte, op ReduceOp, pof2 int) bool {
	if m.st == 0 {
		m.tag = g.nextTag()
		m.rem = g.n - pof2
		m.tmp = r.AllocMem(len(buf))
		m.newRank = -1
		m.mask = 1
		switch {
		case g.me < 2*m.rem && g.me%2 == 0:
			m.st = 1
		case g.me < 2*m.rem:
			m.st = 2
		default:
			m.newRank = g.me - m.rem
			m.st = 3
		}
	}
	switch m.st {
	case 1: // fold: surplus even rank sends its buffer to the odd partner
		if !m.wait {
			if !m.snd.step(r, g.world(g.me+1), m.tag, g.ctx, buf) {
				return false
			}
			m.wait = true
		}
		if !r.waitFree(&m.snd.req) {
			return false
		}
		m.wait = false
		m.st = 3 // newRank stays -1: skip the exchange loop
	case 2: // fold: surplus odd rank receives and reduces
		if !m.wait {
			m.rq = r.irecvCtx(g.world(g.me-1), m.tag, g.ctx, m.tmp)
			m.wait = true
		}
		if !r.waitFree(&m.rq) {
			return false
		}
		r.chargeReduce(len(buf))
		op(buf, m.tmp)
		m.newRank = g.me / 2
		m.wait = false
		m.st = 3
	}
	if m.st == 3 {
		if m.newRank >= 0 {
			for m.mask < pof2 {
				peer := g.world(toAbsFold(m.newRank^m.mask, m.rem))
				if !m.sr.step(r, peer, m.tag, buf, peer, m.tag, m.tmp, g.ctx) {
					return false
				}
				r.chargeReduce(len(buf))
				op(buf, m.tmp)
				m.mask <<= 1
			}
		}
		// Hand the result back to the folded ranks.
		switch {
		case g.me >= 2*m.rem:
			return finishColl(r, m, m.tmp)
		case g.me%2 == 0:
			m.st = 4
		default:
			m.st = 5
		}
	}
	if m.st == 4 {
		if !m.wait {
			m.rq = r.irecvCtx(g.world(g.me+1), m.tag, g.ctx, buf)
			m.wait = true
		}
		if !r.waitFree(&m.rq) {
			return false
		}
	} else {
		if !m.wait {
			if !m.snd.step(r, g.world(g.me-1), m.tag, g.ctx, buf) {
				return false
			}
			m.wait = true
		}
		if !r.waitFree(&m.snd.req) {
			return false
		}
	}
	return finishColl(r, m, m.tmp)
}

// toAbsFold maps a rank of the folded (power-of-two) group back to its rank
// in the whole group.
func toAbsFold(nr, rem int) int {
	if nr < rem {
		return nr*2 + 1
	}
	return nr + rem
}

// mrab is Rabenseifner's allreduce over the world: fold surplus ranks into
// the power-of-two group, reduce-scatter by recursive halving, allgather by
// recursive doubling, unfold. Bandwidth-optimal for large buffers.
type mrab struct {
	tag, tagRS, tagAG int
	rem, newRank      int
	lo, hi            int
	mask              int
	tmp               []byte
	rq                *Request
	snd               msend
	st                uint8 // 0 init, 1 fold send, 2 fold recv, 3 RS, 4 AG, 5 unfold recv, 6 unfold send
	sub               uint8 // within an RS/AG iteration: 0 post, 1 wait send, 2 wait recv
	wait              bool
}

func (m *mrab) step(r *Rank, buf []byte, op ReduceOp, pof2 int) bool {
	if m.st == 0 {
		m.tag = r.nextCollTag()
		m.tagRS = r.nextCollTag()
		m.tagAG = r.nextCollTag()
		m.rem = r.size - pof2
		m.tmp = r.AllocMem(len(buf))
		m.newRank = -1
		switch {
		case r.rank < 2*m.rem && r.rank%2 == 0:
			m.st = 1
		case r.rank < 2*m.rem:
			m.st = 2
		default:
			m.newRank = r.rank - m.rem
			m.st = 3
			m.lo, m.hi = 0, len(buf)
			m.mask = pof2 / 2
		}
	}
	switch m.st {
	case 1:
		if !m.wait {
			if !m.snd.step(r, r.rank+1, m.tag, collCtxBit, buf) {
				return false
			}
			m.wait = true
		}
		if !r.waitFree(&m.snd.req) {
			return false
		}
		m.wait = false
		m.st = 3
		m.mask = 0 // newRank stays -1: skip both loops
	case 2:
		if !m.wait {
			m.rq = r.irecvCtx(r.rank-1, m.tag, collCtxBit, m.tmp)
			m.wait = true
		}
		if !r.waitFree(&m.rq) {
			return false
		}
		r.chargeReduce(len(buf))
		op(buf, m.tmp)
		m.newRank = r.rank / 2
		m.wait = false
		m.st = 3
		m.lo, m.hi = 0, len(buf)
		m.mask = pof2 / 2
	}
	if m.st == 3 {
		if m.newRank >= 0 {
			// Reduce-scatter by recursive halving: my owned region [lo, hi).
			for m.mask > 0 {
				peer := toAbsFold(m.newRank^m.mask, m.rem)
				mid := m.lo + (m.hi-m.lo)/2
				var sendLo, sendHi, keepLo, keepHi int
				if m.newRank&m.mask == 0 {
					keepLo, keepHi, sendLo, sendHi = m.lo, mid, mid, m.hi
				} else {
					keepLo, keepHi, sendLo, sendHi = mid, m.hi, m.lo, mid
				}
				switch m.sub {
				case 0:
					m.rq = r.irecvCtx(peer, m.tagRS, collCtxBit, m.tmp[keepLo:keepHi])
					m.sub = 1
					fallthrough
				case 1:
					if !m.snd.step(r, peer, m.tagRS, collCtxBit, buf[sendLo:sendHi]) {
						return false
					}
					m.sub = 2
					fallthrough
				case 2:
					if !r.waitFree(&m.snd.req) {
						return false
					}
					m.sub = 3
					fallthrough
				default:
					if !r.waitFree(&m.rq) {
						return false
					}
					r.chargeReduce(keepHi - keepLo)
					op(buf[keepLo:keepHi], m.tmp[keepLo:keepHi])
					m.lo, m.hi = keepLo, keepHi
					m.mask >>= 1
					m.sub = 0
				}
			}
		}
		m.mask = 1
		m.st = 4
	}
	if m.st == 4 {
		if m.newRank >= 0 {
			// Allgather by recursive doubling: regions merge back up.
			for m.mask < pof2 {
				peer := toAbsFold(m.newRank^m.mask, m.rem)
				span := m.hi - m.lo
				var peerLo, peerHi int
				if m.newRank&m.mask == 0 {
					peerLo, peerHi = m.lo+span, m.hi+span
				} else {
					peerLo, peerHi = m.lo-span, m.hi-span
				}
				switch m.sub {
				case 0:
					m.rq = r.irecvCtx(peer, m.tagAG, collCtxBit, buf[peerLo:peerHi])
					m.sub = 1
					fallthrough
				case 1:
					if !m.snd.step(r, peer, m.tagAG, collCtxBit, buf[m.lo:m.hi]) {
						return false
					}
					m.sub = 2
					fallthrough
				case 2:
					if !r.waitFree(&m.snd.req) {
						return false
					}
					m.sub = 3
					fallthrough
				default:
					if !r.waitFree(&m.rq) {
						return false
					}
					if peerLo < m.lo {
						m.lo = peerLo
					} else {
						m.hi = peerHi
					}
					m.mask <<= 1
					m.sub = 0
				}
			}
		}
		switch {
		case r.rank >= 2*m.rem:
			return finishColl(r, m, m.tmp)
		case r.rank%2 == 0:
			m.st = 5
		default:
			m.st = 6
		}
	}
	if m.st == 5 {
		if !m.wait {
			m.rq = r.irecvCtx(r.rank+1, m.tag, collCtxBit, buf)
			m.wait = true
		}
		if !r.waitFree(&m.rq) {
			return false
		}
	} else {
		if !m.wait {
			if !m.snd.step(r, r.rank-1, m.tag, collCtxBit, buf) {
				return false
			}
			m.wait = true
		}
		if !r.waitFree(&m.snd.req) {
			return false
		}
	}
	return finishColl(r, m, m.tmp)
}

// mring is the reduce-scatter + allgather ring allreduce over the world, as
// used by data-parallel training frameworks: P-1 steps passing reduced
// partial chunks to the right neighbor, then P-1 steps circulating the
// finished chunks. Every transfer is nearest-neighbor, so on a co-resident
// job each step stays on the SHM/CMA channels between adjacent ranks.
// Requires len(buf)%8 == 0 (chunk boundaries stay element-aligned); ranks
// beyond the element count simply own empty chunks.
type mring struct {
	tagRS, tagAG int
	s            int
	tmp          []byte
	sr           msr
	ph           uint8
}

func (m *mring) step(r *Rank, buf []byte, op ReduceOp) bool {
	n := r.size
	nel := len(buf) / 8
	// Element-aligned chunk boundaries: chunk i is buf[off(i):off(i+1)].
	off := func(i int) int { return i * nel / n * 8 }
	chunk := func(i int) []byte { return buf[off(i):off(i+1)] }
	right := (r.rank + 1) % n
	left := (r.rank - 1 + n) % n
	if m.ph == 0 {
		m.tagRS = r.nextCollTag()
		m.tagAG = r.nextCollTag()
		// A chunk spans floor((i+1)·nel/n) - floor(i·nel/n) <= ceil(nel/n)
		// elements; size the receive scratch for the worst case.
		m.tmp = r.AllocMem((nel + n - 1) / n * 8)
		m.ph = 1
	}
	if m.ph == 1 {
		// Reduce-scatter: at step s, send chunk (rank-s) and receive chunk
		// (rank-s-1), reducing it into buf. After n-1 steps this rank holds
		// the fully reduced chunk (rank+1).
		for m.s < n-1 {
			sendIdx := (r.rank - m.s + n) % n
			recvIdx := (r.rank - m.s - 1 + n) % n
			rc := chunk(recvIdx)
			if !m.sr.step(r, right, m.tagRS, chunk(sendIdx), left, m.tagRS, m.tmp[:len(rc)], collCtxBit) {
				return false
			}
			if len(rc) > 0 {
				r.chargeReduce(len(rc))
				op(rc, m.tmp[:len(rc)])
			}
			m.s++
		}
		m.s = 0
		m.ph = 2
	}
	// Allgather: circulate the finished chunks, starting from (rank+1).
	for m.s < n-1 {
		sendIdx := (r.rank + 1 - m.s + n) % n
		recvIdx := (r.rank - m.s + n) % n
		if !m.sr.step(r, right, m.tagAG, chunk(sendIdx), left, m.tagAG, chunk(recvIdx), collCtxBit) {
			return false
		}
		m.s++
	}
	return finishColl(r, m, m.tmp)
}

// mallreduce is the world allreduce of machine programs: per-call algorithm
// selection, then the chosen algorithm's stepper. Only the selected stepper
// is allocated — one is live at a time, and a machine rank's whole accounted
// footprint rides on staying lean. (Rank.allreduce, with a stack to spend,
// dispatches over stack steppers instead.) The tree algorithm is a binomial
// reduce to rank 0 followed by a binomial broadcast: 2·log2(P) rounds, each
// moving the whole buffer. Recursive doubling dominates it in this cost
// model, so the selector never picks it; it exists as a forced comparison
// baseline (MV2_ALLREDUCE_ALGO=tree).
type mallreduce struct {
	pof2 int
	algo core.AllreduceAlgo
	ph   uint8
	rd   *mrd
	rab  *mrab
	ring *mring
	red  *mreduce
	bc   *mbcast
}

func (m *mallreduce) step(r *Rank, buf []byte, op ReduceOp) bool {
	if r.size == 1 {
		return true
	}
	g := r.group()
	if m.ph == 0 {
		m.algo, m.pof2 = r.pickAllreduce(len(buf))
		m.ph = 1
		switch m.algo {
		case core.AllreduceRabenseifner:
			m.rab = &mrab{}
		case core.AllreduceRing:
			m.ring = &mring{}
		case core.AllreduceTree:
			m.red = &mreduce{}
		default:
			m.rd = &mrd{}
		}
	}
	var done bool
	switch m.algo {
	case core.AllreduceRabenseifner:
		done = m.rab.step(r, buf, op, m.pof2)
	case core.AllreduceRing:
		done = m.ring.step(r, buf, op)
	case core.AllreduceTree:
		// Binomial reduce to rank 0, then broadcast.
		if m.ph == 1 {
			if !m.red.step(r, &g, 0, buf, op) {
				return false
			}
			m.ph = 2
			m.red, m.bc = nil, &mbcast{}
		}
		done = m.bc.step(r, &g, 0, buf)
	default:
		done = m.rd.step(r, &g, buf, op, m.pof2)
	}
	if !done {
		return false
	}
	*m = mallreduce{}
	return true
}

// MachBarrier is Rank.Barrier for machine programs: call Step each machine
// step; true means the barrier completed, false means unwind with sim.More.
// The zero value is ready; it resets itself on completion for reuse.
type MachBarrier struct{ m mbarrier }

func (b *MachBarrier) Step(r *Rank) bool {
	g := r.group()
	return b.m.step(r, &g)
}

// MachAllreduce is Rank.Allreduce for machine programs (the non-hierarchical
// path: per-call algorithm selection over recursive doubling, Rabenseifner,
// ring, and tree). Same stepping convention as MachBarrier.
type MachAllreduce struct{ m mallreduce }

func (a *MachAllreduce) Step(r *Rank, buf []byte, op ReduceOp) bool { return a.m.step(r, buf, op) }

// AllreduceWorkload is a self-checking blocking rank body: iters rounds of
// an int64-sum allreduce over a size-byte buffer (size%8 == 0) with a
// deterministic per-rank fill, aborting the job on any wrong element. Its
// machine twin is AllreduceProgram — the pair drives the body-kind
// equivalence tests and the full-fidelity memory benchmark.
func AllreduceWorkload(iters, size int) func(r *Rank) error {
	return func(r *Rank) error {
		// As in allreduceProg below: from the pool, tail cleared.
		buf := r.AllocMem(size)
		defer r.FreeMem(buf)
		clear(buf[size&^7:])
		for it := 0; it < iters; it++ {
			fillAllreduce(buf, r.rank, it)
			r.allreduce(buf, SumInt64)
			checkAllreduce(r, buf, it)
		}
		return nil
	}
}

// AllreduceProgram is AllreduceWorkload as a machine-native Program factory
// for World.RunMachine: the same fills, the same collective schedule, the
// same checks, with no goroutine or stack behind any rank.
func AllreduceProgram(iters, size int) func(rank int) Program {
	return func(int) Program {
		return &allreduceProg{iters: iters, size: size}
	}
}

type allreduceProg struct {
	iters, size int
	it          int
	buf         []byte
	ar          mallreduce
	filled      bool
}

func (g *allreduceProg) Step(r *Rank) sim.Flow {
	if g.buf == nil {
		// From the rank's pool, so the vectors of one world serve the next
		// (1024 x 33 KiB in the full-fidelity job). fillAllreduce writes whole
		// words only: clear the tail it leaves.
		g.buf = r.AllocMem(g.size)
		clear(g.buf[g.size&^7:])
	}
	for g.it < g.iters {
		if !g.filled {
			fillAllreduce(g.buf, r.rank, g.it)
			g.filled = true
		}
		if !g.ar.step(r, g.buf, SumInt64) {
			return sim.More
		}
		checkAllreduce(r, g.buf, g.it)
		g.it++
		g.filled = false
	}
	r.FreeMem(g.buf)
	g.buf = nil
	return sim.Done
}

// MachineBytes: the program struct plus the largest algorithm machine an
// allreduce can keep live (they are lazily allocated, one at a time), so
// the engine's accounting reflects the steady-state footprint.
func (g *allreduceProg) MachineBytes() int {
	return int(reflect.TypeOf(*g).Size()) + maxCollMachineBytes
}

var maxCollMachineBytes = func() int {
	max := 0
	for _, sz := range []uintptr{
		reflect.TypeOf(mrd{}).Size(),
		reflect.TypeOf(mrab{}).Size(),
		reflect.TypeOf(mring{}).Size(),
		reflect.TypeOf(mreduce{}).Size(),
		reflect.TypeOf(mbcast{}).Size(),
	} {
		if int(sz) > max {
			max = int(sz)
		}
	}
	return max
}()

// fillAllreduce writes rank- and iteration-unique int64 elements:
// element e of rank k at iteration it is (k+1)*(it+1) + e. Same loop shape as
// the reduction kernels in datatype.go.
func fillAllreduce(buf []byte, rank, it int) {
	v := uint64(int64(rank+1) * int64(it+1))
	for len(buf) >= 32 {
		w := buf[:32:32]
		le.PutUint64(w[0:8], v)
		le.PutUint64(w[8:16], v+1)
		le.PutUint64(w[16:24], v+2)
		le.PutUint64(w[24:32], v+3)
		v += 4
		buf = buf[32:]
	}
	for len(buf) >= 8 {
		le.PutUint64(buf[:8], v)
		v++
		buf = buf[8:]
	}
}

// checkAllreduce verifies a summed buffer against the closed form of
// fillAllreduce's values and aborts the job on the first mismatch. Whole
// 32-byte blocks are compared four words at a time; the word loop below them
// takes the tail, and the block a mismatch is in, to name the element.
func checkAllreduce(r *Rank, buf []byte, it int) {
	n := uint64(r.size)
	want := n * (n + 1) / 2 * uint64(it+1)
	i := 0
	for b := buf; len(b) >= 32; b = b[32:] {
		w := b[:32:32]
		if le.Uint64(w[0:8]) != want || le.Uint64(w[8:16]) != want+n ||
			le.Uint64(w[16:24]) != want+2*n || le.Uint64(w[24:32]) != want+3*n {
			break
		}
		want += 4 * n
		i += 32
	}
	for ; i+8 <= len(buf); i += 8 {
		if got := le.Uint64(buf[i:]); got != want {
			r.Abort("allreduce check: rank %d iter %d elem %d: got %d want %d",
				r.rank, it, i/8, int64(got), int64(want))
		}
		want += n
	}
}
