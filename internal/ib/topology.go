package ib

import (
	"fmt"

	"cmpi/internal/sim"
)

// Hierarchical fabric topology: racks and multi-level fat-tree spine stages.
//
// The default fabric is the paper's testbed — a single non-blocking switch
// with full bisection at 16 nodes — which stays exactly as it was: the zero
// Topology is "trivial" and every transfer takes the legacy crossbar path,
// byte-identical to the engine before topology existed. A non-trivial
// Topology groups hosts into racks of RackSize behind a leaf switch and adds
// SpineStages levels of spine switches above them. Intra-rack traffic still
// only crosses the leaf (the legacy path); inter-rack traffic climbs
// up through the spine stages and back down, paying HopLatency per extra
// switch hop and booking occupancy on every spine switch it traverses —
// per-stage contention, so two flows that hash onto the same spine serialize
// there even when their endpoint links are idle.
//
// Routing is static: a flow (srcRack, dstRack, hop) hashes onto one of the
// SpinesPerStage switches of its stage, the way deterministic ECMP pins a
// flow to one path. Static routing keeps the simulation deterministic and
// models the real pathology that fat trees only reach full bisection when
// flows spread across spines.
type Topology struct {
	// RackSize is the number of hosts behind one leaf switch. Zero or
	// negative means trivial: the whole fabric is one crossbar (the paper's
	// testbed) and no other field is consulted.
	RackSize int
	// SpineStages is the number of switch levels above the leaves (1 = a
	// two-level fat tree). Inter-rack traffic crosses 2*SpineStages spine
	// hops (up and back down).
	SpineStages int
	// SpinesPerStage is the number of parallel switches per spine stage: the
	// stage's contention domains.
	SpinesPerStage int
	// HopLatency is the one-way latency added per spine hop.
	HopLatency sim.Time
}

// Trivial reports whether the topology is the legacy single crossbar.
func (t Topology) Trivial() bool { return t.RackSize <= 0 }

// RackOf maps a host index to its rack.
func (t Topology) RackOf(host int) int {
	if t.Trivial() {
		return 0
	}
	return host / t.RackSize
}

// Racks reports the number of racks a cluster of hosts splits into.
func (t Topology) Racks(hosts int) int {
	if t.Trivial() || hosts <= 0 {
		return 1
	}
	return (hosts + t.RackSize - 1) / t.RackSize
}

// Validate rejects non-trivial topologies with missing stage parameters.
func (t Topology) Validate() error {
	if t.Trivial() {
		return nil
	}
	if t.SpineStages < 1 {
		return fmt.Errorf("ib: topology with racks needs SpineStages >= 1 (got %d)", t.SpineStages)
	}
	if t.SpinesPerStage < 1 {
		return fmt.Errorf("ib: topology needs SpinesPerStage >= 1 (got %d)", t.SpinesPerStage)
	}
	if t.HopLatency < 0 {
		return fmt.Errorf("ib: negative HopLatency %v", t.HopLatency)
	}
	return nil
}

// SetTopology installs the fabric's switching hierarchy and allocates the
// per-spine-switch contention state. Call before the first transfer; a
// trivial topology (the default) keeps the legacy crossbar behavior exactly.
//
// Spine switches are shared across hosts, but their next-free words are
// declarable dispatch resources: SpineHops enumerates exactly which switches
// a host pair's static ECMP routes can book, and the MPI layer folds those
// ids into both ranks' epoch footprints (World.resSpine), so groups whose
// flows could meet at a spine merge instead of the world serializing. The
// scale proxy declares no footprints, so its every epoch is one group.
func (f *Fabric) SetTopology(t Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	f.topo = t
	f.spines = nil
	if !t.Trivial() {
		f.spines = make([][]sim.Time, t.SpineStages)
		for s := range f.spines {
			f.spines[s] = make([]sim.Time, t.SpinesPerStage)
		}
	}
	return nil
}

// Topology returns the fabric's installed topology (zero value = trivial).
func (f *Fabric) Topology() Topology { return f.topo }

// spineRoute statically routes hop number h of a (srcRack, dstRack) flow onto
// one switch of its stage, ECMP-style: deterministic, and spreading distinct
// rack pairs across the stage's switches.
func (f *Fabric) spineRoute(srcRack, dstRack, h int) int {
	n := f.topo.SpinesPerStage
	return (srcRack*31 + dstRack*17 + h*7) % n
}

// SpineHops enumerates the stage-major indices (stage*SpinesPerStage + idx)
// of every spine switch the static routes between hosts a and b can book —
// both directions, since spineRoute is direction-asymmetric. Indices are
// appended to dst (deduplicated) and the extended slice returned. Empty for
// trivial topologies and same-rack pairs, which never leave the leaf. The
// result is a pure function of the topology and the two hosts' racks; the
// MPI layer uses it to declare spine next-free words as dispatch resources.
func (f *Fabric) SpineHops(a, b int, dst []int) []int {
	t := f.topo
	if t.Trivial() {
		return dst
	}
	ra, rb := t.RackOf(a), t.RackOf(b)
	if ra == rb {
		return dst
	}
	hops := 2 * t.SpineStages
	for dir := 0; dir < 2; dir++ {
		src, tgt := ra, rb
		if dir == 1 {
			src, tgt = rb, ra
		}
		for h := 0; h < hops; h++ {
			stage := h
			if stage >= t.SpineStages {
				stage = hops - 1 - h
			}
			id := stage*t.SpinesPerStage + f.spineRoute(src, tgt, h)
			seen := false
			for _, d := range dst {
				if d == id {
					seen = true
					break
				}
			}
			if !seen {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// spinePath books the spine-switch traversals of an inter-rack transfer that
// leaves the source uplink at t0 with per-switch occupancy occ. It returns
// when the flow clears the last spine (cut-through: each hop's start is
// delayed by the busiest switch on the path so far) and the total added hop
// latency. Intra-rack and trivial-topology transfers return (t0, 0) — the
// legacy path, byte-identical to the pre-topology engine.
func (f *Fabric) spinePath(src, dst int, t0, occ sim.Time) (ready, extra sim.Time) {
	t := f.topo
	if t.Trivial() {
		return t0, 0
	}
	ra, rb := t.RackOf(src), t.RackOf(dst)
	if ra == rb {
		return t0, 0
	}
	ready = t0
	hops := 2 * t.SpineStages
	for h := 0; h < hops; h++ {
		stage := h
		if stage >= t.SpineStages {
			stage = hops - 1 - h // back down the tree
		}
		sw := &f.spines[stage][f.spineRoute(ra, rb, h)]
		if *sw > ready {
			ready = *sw
		}
		*sw = ready + occ
		extra += t.HopLatency
	}
	return ready, extra
}

// Transit books link and switch resources for an n-byte transfer from host
// src to host dst posted at t0, returning when the sender-side resource is
// released and when the last byte lands. This is the raw fabric cost model —
// the same booking PostSend performs — exported for the scale proxy
// (mpi.ScaleWorld), which models collectives over hosts without per-rank
// queue pairs.
func (f *Fabric) Transit(src, dst, n int, t0 sim.Time) (txEnd, arrival sim.Time) {
	return f.transitTimes(src, dst, n, t0)
}
