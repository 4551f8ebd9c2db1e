package mpi

// ScaleWorld: an O(ranks) collective proxy for huge worlds.
//
// A full World carries per-pair connection state (O(n²)) and per-rank queue
// pairs, which is the right fidelity for the paper's 16-host testbed and far
// too heavy for worlds of tens of thousands of ranks. ScaleWorld models just
// the part that matters at scale — collective traffic over the fabric cost
// model — with one continuation machine per rank (sim.Machine) and no pair
// table, so memory is O(ranks) and the engine's arena keeps a 4096-rank world
// in a few hundred bytes per rank.
//
// Ranks are placed RanksPerHost to a host, hosts into racks by the fabric
// Topology — the locality detector over racks: the proxy derives host and
// rack co-residence exactly the way the runtime's container locality detector
// derives host co-residence, and the hierarchical algorithm exploits both
// levels (SHM-priced exchange inside a host, one IB flow per host inside a
// rack, one flow per rack across the spine).
//
// Three allreduce algorithms mirror the full runtime's selector
// (coll_select.go): ring reduce-scatter+allgather (bandwidth-optimal, any
// rank count), recursive doubling (latency-optimal, power-of-two), and the
// rack-hierarchical reduce/exchange/bcast. ScaleAuto picks by layout, like
// autoAllreduce picks by size and locality.
//
// Determinism: rank machines declare no footprints and all deliveries are
// untagged callbacks, so every epoch is one Global group dispatched in place
// — results are independent of CMPI_SIM_WORKERS.

import (
	"fmt"

	"cmpi/internal/cluster"
	"cmpi/internal/ib"
	"cmpi/internal/perf"
	"cmpi/internal/profile"
	"cmpi/internal/sim"
)

// ScaleAlgo selects the proxy's allreduce algorithm.
type ScaleAlgo uint8

const (
	// ScaleAuto picks by layout: hierarchical when there is locality to
	// exploit (multiple ranks per host and multiple hosts), else recursive
	// doubling for power-of-two worlds, else ring.
	ScaleAuto ScaleAlgo = iota
	// ScaleRing is reduce-scatter + allgather around a rank ring.
	ScaleRing
	// ScaleRD is recursive doubling (requires a power-of-two rank count).
	ScaleRD
	// ScaleHier reduces inside each host, then inside each rack, exchanges
	// across racks, and broadcasts back down.
	ScaleHier
)

// String names the algorithm for tables and bench output.
func (a ScaleAlgo) String() string {
	switch a {
	case ScaleAuto:
		return "auto"
	case ScaleRing:
		return "ring"
	case ScaleRD:
		return "rd"
	case ScaleHier:
		return "hier"
	}
	return fmt.Sprintf("algo(%d)", uint8(a))
}

// ScaleOptions configures one scale-proxy run.
type ScaleOptions struct {
	// Ranks is the world size. Required.
	Ranks int
	// RanksPerHost is the container packing density (default 32).
	RanksPerHost int
	// Bytes is the allreduce payload per rank (default 1 MiB).
	Bytes int
	// Iters is the number of back-to-back allreduces (default 1).
	Iters int
	// Algo picks the algorithm (default ScaleAuto).
	Algo ScaleAlgo
	// Topology is the fabric hierarchy; trivial means one crossbar.
	Topology ib.Topology
	// Params is the cost model (zero value: perf.Default()).
	Params perf.Params
}

// ScaleResult is one run's outcome.
type ScaleResult struct {
	// Algo is the resolved algorithm (never ScaleAuto).
	Algo ScaleAlgo
	// Time is the completion time of the slowest rank.
	Time sim.Time
	// Hosts and Racks describe the derived placement.
	Hosts, Racks int
	// Sim carries the engine counters, including PeakProcBytes and arena
	// utilization.
	Sim profile.SimStats
}

// Delivery slot indices: each wait-point class gets its own counter so an
// early arrival for one stage can never satisfy a wait for another. Within a
// slot, counts are consumed (decremented) at each wait, so drift across
// iterations is harmless: same-path deliveries arrive FIFO (the fabric books
// each link monotonically), and hierarchical stages are gated by the
// broadcast of the previous iteration.
const (
	slotRing      = 0 // ring predecessor chunks (ring algo, and hier's rack ring)
	slotRD0       = 0 // recursive doubling, even global round
	slotRD1       = 1 // recursive doubling, odd global round
	slotHostUp    = 1 // member contributions to the host leader
	slotRackUp    = 2 // host-leader contributions to the rack leader
	slotRackDown  = 3 // rack leader's broadcast to host leaders
	slotHostDown  = 4 // host leader's broadcast to members
	scaleSlots    = 5
	scaleHdrBytes = 64 // modeled wire header per proxy message
)

// scaleMsg is one in-flight delivery record, recycled through the world's
// free list (one group per epoch, so no locking).
type scaleMsg struct {
	to   *scaleRank
	at   sim.Time
	slot uint8
}

// scaleRank is one rank's continuation machine. Kept deliberately small: this
// struct plus the Proc facade is the entire per-rank cost.
type scaleRank struct {
	w    *ScaleWorld
	p    *sim.Proc
	id   int32
	pc   uint8
	role uint8 // 0 member, 1 host leader, 2 rack leader
	iter int32
	step int32
	slot [scaleSlots]int32
}

// ScaleWorld is the proxy job: shared layout, cost constants and the rank
// machines.
type ScaleWorld struct {
	eng    *sim.Engine
	fabric *ib.Fabric
	prm    *perf.Params
	opt    ScaleOptions
	algo   ScaleAlgo
	ranks  []scaleRank
	hosts  int
	racks  int

	// Precomputed costs (virtual time) and sizes.
	ringChunk  int      // ring: bytes per chunk
	rackChunk  int      // hier: bytes per rack-ring chunk
	ringReduce sim.Time // reduce one ring chunk
	rackReduce sim.Time // reduce one rack-ring chunk
	fullReduce sim.Time // reduce a full payload (RD, host/rack up)
	fullCopy   sim.Time // copy a full payload (bcast receive)
	rdRounds   int32
	free       []*scaleMsg
	done       int
	endT       sim.Time
}

// roles
const (
	roleMember     = 0
	roleHostLeader = 1
	roleRackLeader = 2
)

// RunScale builds and drives one scale-proxy world.
func RunScale(o ScaleOptions) (*ScaleResult, error) {
	if o.Ranks <= 0 {
		return nil, fmt.Errorf("scale: Ranks must be positive (got %d)", o.Ranks)
	}
	if o.RanksPerHost <= 0 {
		o.RanksPerHost = 32
	}
	if o.Bytes <= 0 {
		o.Bytes = 1 << 20
	}
	if o.Iters <= 0 {
		o.Iters = 1
	}
	if o.Params.IBBWInter <= 0 {
		o.Params = perf.Default()
	}
	if err := o.Topology.Validate(); err != nil {
		return nil, err
	}
	hosts := (o.Ranks + o.RanksPerHost - 1) / o.RanksPerHost
	racks := o.Topology.Racks(hosts)

	algo := o.Algo
	if algo == ScaleAuto {
		switch {
		case hosts > 1 && o.RanksPerHost > 1:
			algo = ScaleHier
		case o.Ranks&(o.Ranks-1) == 0:
			algo = ScaleRD
		default:
			algo = ScaleRing
		}
	}
	if algo == ScaleRD && o.Ranks&(o.Ranks-1) != 0 {
		return nil, fmt.Errorf("scale: recursive doubling needs a power-of-two rank count (got %d)", o.Ranks)
	}

	eng := sim.NewEngine()
	cores := (o.RanksPerHost + 1) / 2
	if cores < 1 {
		cores = 1
	}
	clu, err := cluster.New(cluster.Spec{Hosts: hosts, SocketsPerHost: 2, CoresPerSocket: cores, HCAsPerHost: 1})
	if err != nil {
		return nil, err
	}
	fabric := ib.NewFabric(eng, &o.Params, clu)
	if err := fabric.SetTopology(o.Topology); err != nil {
		return nil, err
	}

	w := &ScaleWorld{
		eng: eng, fabric: fabric, prm: &o.Params, opt: o, algo: algo,
		hosts: hosts, racks: racks,
	}
	w.ringChunk = maxInt(o.Bytes/o.Ranks, 1)
	w.rackChunk = maxInt(o.Bytes/maxInt(racks, 1), 1)
	w.ringReduce = o.Params.MemCopy(w.ringChunk, false)
	w.rackReduce = o.Params.MemCopy(w.rackChunk, false)
	w.fullReduce = o.Params.MemCopy(o.Bytes, false)
	w.fullCopy = o.Params.MemCopy(o.Bytes, false)
	for r := int32(1); r < int32(o.Ranks); r <<= 1 {
		w.rdRounds++
	}

	w.ranks = make([]scaleRank, o.Ranks)
	for i := range w.ranks {
		r := &w.ranks[i]
		r.w = w
		r.id = int32(i)
		r.role = w.roleOf(int32(i))
		r.p = eng.GoMachine(fmt.Sprintf("srank%d", i), r)
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	if w.done != o.Ranks {
		return nil, fmt.Errorf("scale: %d/%d ranks finished", w.done, o.Ranks)
	}
	return &ScaleResult{
		Algo: algo, Time: w.endT, Hosts: hosts, Racks: racks,
		Sim: simStatsOf(eng.Stats()),
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Layout helpers: the rack-level locality detector. Host co-residence is
// rank/RanksPerHost; rack co-residence is the topology's host→rack map.

func (w *ScaleWorld) hostOf(rank int32) int  { return int(rank) / w.opt.RanksPerHost }
func (w *ScaleWorld) rackOf(rank int32) int  { return w.opt.Topology.RackOf(w.hostOf(rank)) }
func (w *ScaleWorld) hostLeader(h int) int32 { return int32(h * w.opt.RanksPerHost) }
func (w *ScaleWorld) rackLeader(rk int) int32 {
	if w.opt.Topology.Trivial() {
		return 0
	}
	return w.hostLeader(rk * w.opt.Topology.RackSize)
}

// localN is the number of ranks on host h (the last host may be partial).
func (w *ScaleWorld) localN(h int) int32 {
	n := w.opt.Ranks - h*w.opt.RanksPerHost
	if n > w.opt.RanksPerHost {
		n = w.opt.RanksPerHost
	}
	return int32(n)
}

// hostsInRack is the number of hosts in rack rk (the last rack may be
// partial; trivial topology is one rack holding every host).
func (w *ScaleWorld) hostsInRack(rk int) int32 {
	if w.opt.Topology.Trivial() {
		return int32(w.hosts)
	}
	n := w.hosts - rk*w.opt.Topology.RackSize
	if n > w.opt.Topology.RackSize {
		n = w.opt.Topology.RackSize
	}
	return int32(n)
}

func (w *ScaleWorld) roleOf(id int32) uint8 {
	if int(id)%w.opt.RanksPerHost != 0 {
		return roleMember
	}
	h := w.hostOf(id)
	if w.rackLeader(w.opt.Topology.RackOf(h)) == id {
		return roleRackLeader
	}
	return roleHostLeader
}

// send models one rank-to-rank message of n payload bytes: SHM pricing inside
// a host, the fabric's full link/spine booking across hosts. The sender pays
// only its post overhead (asynchronous send); delivery increments the
// target's slot counter and wakes it.
func (w *ScaleWorld) send(p *sim.Proc, to int32, n int, slot uint8) {
	dst := &w.ranks[to]
	sh, dh := w.hostOf(int32(p.ID())), w.hostOf(to)
	var arrival sim.Time
	if sh == dh {
		p.Advance(w.prm.ShmPostOverhead + w.prm.ContainerPacketOverhead)
		arrival = p.Now() + w.prm.MemCopy(n, false) + w.prm.ShmPollOverhead
	} else {
		p.Advance(w.prm.IBPostOverhead)
		_, arr := w.fabric.Transit(sh, dh, n+scaleHdrBytes, p.Now())
		arrival = arr + w.prm.IBPollOverhead
	}
	m := w.getMsg()
	m.to, m.at, m.slot = dst, arrival, slot
	w.eng.AtArg(arrival, deliverScale, m)
}

// deliverScale is the static delivery callback: count the arrival and wake
// the target. Runs in scheduler context, in the world's one group.
func deliverScale(a any) {
	m := a.(*scaleMsg)
	r := m.to
	r.slot[m.slot]++
	r.p.UnparkAt(m.at)
	r.w.putMsg(m)
}

func (w *ScaleWorld) getMsg() *scaleMsg {
	if n := len(w.free); n > 0 {
		m := w.free[n-1]
		w.free = w.free[:n-1]
		return m
	}
	return &scaleMsg{}
}

func (w *ScaleWorld) putMsg(m *scaleMsg) {
	m.to = nil
	w.free = append(w.free, m)
}

// wait consumes k arrivals from a slot, parking until they are all in.
// Returns false when the machine must block (callers return sim.More
// immediately — Park is the step's last action).
func (r *scaleRank) wait(p *sim.Proc, slot uint8, k int32) bool {
	if r.slot[slot] < k {
		p.Park()
		return false
	}
	r.slot[slot] -= k
	return true
}

// finish retires the rank and records the world's completion time.
func (r *scaleRank) finish(p *sim.Proc) sim.Flow {
	w := r.w
	if p.Now() > w.endT {
		w.endT = p.Now()
	}
	w.done++
	return sim.Done
}

// Step dispatches to the resolved algorithm's state machine.
func (r *scaleRank) Step(p *sim.Proc) sim.Flow {
	switch r.w.algo {
	case ScaleRing:
		return r.stepRing(p)
	case ScaleRD:
		return r.stepRD(p)
	default:
		return r.stepHier(p)
	}
}

// stepRing: reduce-scatter + allgather around the rank ring. 2(P-1) steps,
// each sending one chunk to the successor and consuming one from the
// predecessor (reducing during the first P-1 steps). Counter waits are safe
// at any drift because all of a rank's inbound chunks ride the same
// predecessor→rank path, which delivers FIFO.
func (r *scaleRank) stepRing(p *sim.Proc) sim.Flow {
	w := r.w
	P := int32(len(w.ranks))
	iters := int32(w.opt.Iters)
	if P == 1 {
		r.iter = iters
	}
	switch r.pc {
	case 0:
		if r.iter >= iters {
			return r.finish(p)
		}
		w.send(p, (r.id+1)%P, w.ringChunk, slotRing)
		r.pc = 1
		fallthrough
	default:
		if !r.wait(p, slotRing, 1) {
			return sim.More
		}
		if r.step < P-1 {
			p.Advance(w.ringReduce)
		}
		r.step++
		if r.step == 2*(P-1) {
			r.step = 0
			r.iter++
		}
		r.pc = 0
		return sim.More
	}
}

// stepRD: recursive doubling over a power-of-two world. Round k exchanges the
// full payload with partner id^(1<<k). Arrivals can run at most one global
// round ahead (a partner's round-g message requires this rank's round-(g-1)
// send), so two alternating slots indexed by global-round parity keep rounds
// separate.
func (r *scaleRank) stepRD(p *sim.Proc) sim.Flow {
	w := r.w
	iters := int32(w.opt.Iters)
	if w.rdRounds == 0 {
		r.iter = iters
	}
	switch r.pc {
	case 0:
		if r.iter >= iters {
			return r.finish(p)
		}
		g := r.iter*w.rdRounds + r.step
		w.send(p, r.id^(1<<r.step), w.opt.Bytes, uint8(g&1))
		r.pc = 1
		fallthrough
	default:
		g := r.iter*w.rdRounds + r.step
		if !r.wait(p, uint8(g&1), 1) {
			return sim.More
		}
		p.Advance(w.fullReduce)
		r.step++
		if r.step == w.rdRounds {
			r.step = 0
			r.iter++
		}
		r.pc = 0
		return sim.More
	}
}

// Hierarchical program counters.
const (
	hpUp       = 0 // members send up / leaders collect host contributions
	hpHostWait = 1 // host leader: wait for member contributions
	hpRackWait = 2 // rack leader: wait for host-leader contributions
	hpRingSend = 3 // rack leader: rack-ring exchange, send side
	hpRingWait = 4 // rack leader: rack-ring exchange, wait side
	hpDownRack = 5 // host leader: wait for the rack broadcast
	hpDownHost = 6 // member: wait for the host broadcast
)

// stepHier: reduce to the host leader over SHM, to the rack leader over one
// IB flow per host, ring-exchange across rack leaders (one flow per rack over
// the spine), then broadcast back down. Iteration boundaries are gated by the
// downward broadcasts, so slot counters never mix iterations.
func (r *scaleRank) stepHier(p *sim.Proc) sim.Flow {
	w := r.w
	iters := int32(w.opt.Iters)
	h := w.hostOf(r.id)
	switch r.pc {
	case hpUp:
		if r.iter >= iters {
			return r.finish(p)
		}
		switch r.role {
		case roleMember:
			w.send(p, w.hostLeader(h), w.opt.Bytes, slotHostUp)
			r.pc = hpDownHost
			return sim.More
		case roleHostLeader:
			r.pc = hpHostWait
		default:
			r.pc = hpHostWait
		}
		fallthrough
	case hpHostWait:
		need := w.localN(h) - 1
		if !r.wait(p, slotHostUp, need) {
			return sim.More
		}
		if need > 0 {
			p.Advance(sim.Time(need) * w.fullReduce)
		}
		if r.role == roleHostLeader {
			w.send(p, w.rackLeader(w.rackOf(r.id)), w.opt.Bytes, slotRackUp)
			r.pc = hpDownRack
			return sim.More
		}
		r.pc = hpRackWait
		fallthrough
	case hpRackWait:
		need := w.hostsInRack(w.rackOf(r.id)) - 1
		if !r.wait(p, slotRackUp, need) {
			return sim.More
		}
		if need > 0 {
			p.Advance(sim.Time(need) * w.fullReduce)
		}
		if w.racks == 1 {
			return r.hierBcastDown(p)
		}
		r.pc = hpRingSend
		fallthrough
	case hpRingSend:
		rk := w.rackOf(r.id)
		succ := w.rackLeader((rk + 1) % w.racks)
		w.send(p, succ, w.rackChunk, slotRing)
		r.pc = hpRingWait
		fallthrough
	case hpRingWait:
		if !r.wait(p, slotRing, 1) {
			return sim.More
		}
		if r.step < int32(w.racks)-1 {
			p.Advance(w.rackReduce)
		}
		r.step++
		if r.step < 2*int32(w.racks-1) {
			r.pc = hpRingSend
			return sim.More
		}
		r.step = 0
		return r.hierBcastDown(p)
	case hpDownRack:
		if !r.wait(p, slotRackDown, 1) {
			return sim.More
		}
		p.Advance(w.fullCopy)
		return r.hostBcast(p)
	default: // hpDownHost
		if !r.wait(p, slotHostDown, 1) {
			return sim.More
		}
		p.Advance(w.fullCopy)
		r.iter++
		r.pc = hpUp
		return sim.More
	}
}

// hierBcastDown: the rack leader fans the result out to its rack's other
// host leaders, then to its own host's members.
func (r *scaleRank) hierBcastDown(p *sim.Proc) sim.Flow {
	w := r.w
	rk := w.rackOf(r.id)
	first := 0
	if !w.opt.Topology.Trivial() {
		first = rk * w.opt.Topology.RackSize
	}
	for i := int32(0); i < w.hostsInRack(rk); i++ {
		hl := w.hostLeader(first + int(i))
		if hl != r.id {
			w.send(p, hl, w.opt.Bytes, slotRackDown)
		}
	}
	return r.hostBcast(p)
}

// hostBcast: a host leader (or rack leader, for its own host) fans the
// result out to the host's members and completes its iteration.
func (r *scaleRank) hostBcast(p *sim.Proc) sim.Flow {
	w := r.w
	h := w.hostOf(r.id)
	for i := r.id + 1; i < r.id+w.localN(h); i++ {
		w.send(p, i, w.opt.Bytes, slotHostDown)
	}
	r.iter++
	r.pc = hpUp
	return sim.More
}
