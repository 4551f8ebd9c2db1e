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
// The one algorithm is the rack-hierarchical allreduce: reduce inside each
// host, then inside each rack, ring-exchange across rack leaders, and
// broadcast back down. On one host it is a plain host reduce and broadcast;
// with one rank per host, the host level is empty.
//
// Determinism: rank machines and delivery callbacks run on the engine's one
// dispatch queue, in (virtual time, sequence) order.

import (
	"fmt"

	"cmpi/internal/cluster"
	"cmpi/internal/ib"
	"cmpi/internal/perf"
	"cmpi/internal/profile"
	"cmpi/internal/sim"
)

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
	// Topology is the fabric hierarchy; trivial means one crossbar.
	Topology ib.Topology
}

// ScaleResult is one run's outcome.
type ScaleResult struct {
	// Time is the completion time of the slowest rank.
	Time sim.Time
	// Hosts and Racks describe the derived placement.
	Hosts, Racks int
	// Sim carries the engine counters.
	Sim profile.SimStats
}

// Delivery slot indices: each wait-point class gets its own counter so an
// early arrival for one stage can never satisfy a wait for another. Within a
// slot, counts are consumed (decremented) at each wait, so drift across
// iterations is harmless: same-path deliveries arrive FIFO (the fabric books
// each link monotonically), and hierarchical stages are gated by the
// broadcast of the previous iteration.
const (
	slotRing      = 0 // rack-ring predecessor chunks
	slotHostUp    = 1 // member contributions to the host leader
	slotRackUp    = 2 // host-leader contributions to the rack leader
	slotRackDown  = 3 // rack leader's broadcast to host leaders
	slotHostDown  = 4 // host leader's broadcast to members
	scaleSlots    = 5
	scaleHdrBytes = 64 // modeled wire header per proxy message
)

// scaleMsg is one in-flight delivery record, recycled through the world's
// free list (one dispatcher, so no locking).
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
	ranks  []scaleRank
	hosts  int
	racks  int

	// Precomputed costs (virtual time) and sizes.
	rackChunk  int      // bytes per rack-ring chunk
	rackReduce sim.Time // reduce one rack-ring chunk
	fullReduce sim.Time // reduce a full payload (host/rack up)
	fullCopy   sim.Time // copy a full payload (bcast receive)
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
	if err := o.Topology.Validate(); err != nil {
		return nil, err
	}
	hosts := (o.Ranks + o.RanksPerHost - 1) / o.RanksPerHost
	racks := o.Topology.Racks(hosts)

	eng := sim.NewEngine()
	cores := (o.RanksPerHost + 1) / 2
	if cores < 1 {
		cores = 1
	}
	clu, err := cluster.New(cluster.Spec{Hosts: hosts, SocketsPerHost: 2, CoresPerSocket: cores, HCAsPerHost: 1})
	if err != nil {
		return nil, err
	}
	prm := perf.Default()
	fabric := ib.NewFabric(eng, &prm, clu)
	if err := fabric.SetTopology(o.Topology); err != nil {
		return nil, err
	}

	w := &ScaleWorld{
		eng: eng, fabric: fabric, prm: &prm, opt: o,
		hosts: hosts, racks: racks,
	}
	w.rackChunk = max(o.Bytes/max(racks, 1), 1)
	w.rackReduce = prm.MemCopy(w.rackChunk, false)
	w.fullReduce = prm.MemCopy(o.Bytes, false)
	w.fullCopy = prm.MemCopy(o.Bytes, false)

	w.ranks = make([]scaleRank, o.Ranks)
	eng.Grow(o.Ranks)
	names := rankNames(o.Ranks)
	for i := range w.ranks {
		r := &w.ranks[i]
		r.w = w
		r.id = int32(i)
		r.role = w.roleOf(int32(i))
		r.p = eng.GoMachine(names[i], r)
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	if w.done != o.Ranks {
		return nil, fmt.Errorf("scale: %d/%d ranks finished", w.done, o.Ranks)
	}
	// Nothing reads the rank machines again: the next engine may have the
	// arena they live in.
	eng.Recycle()
	return &ScaleResult{
		Time: w.endT, Hosts: hosts, Racks: racks,
		Sim: simStatsOf(eng.Stats()),
	}, nil
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
// the target. Runs in scheduler context.
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

// Step runs the hierarchical allreduce: reduce to the host leader over SHM, to the rack leader over one
// IB flow per host, ring-exchange across rack leaders (one flow per rack over
// the spine), then broadcast back down. Iteration boundaries are gated by the
// downward broadcasts, so slot counters never mix iterations.
func (r *scaleRank) Step(p *sim.Proc) sim.Flow {
	w := r.w
	iters := int32(w.opt.Iters)
	h := w.hostOf(r.id)
	switch r.pc {
	case hpUp:
		if r.iter >= iters {
			return r.finish(p)
		}
		if r.role == roleMember {
			w.send(p, w.hostLeader(h), w.opt.Bytes, slotHostUp)
			r.pc = hpDownHost
			return sim.More
		}
		r.pc = hpHostWait
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
