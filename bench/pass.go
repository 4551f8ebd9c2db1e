package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"

	"cmpi/internal/cluster"
	"cmpi/internal/mpi"
	"cmpi/internal/osu"
	"cmpi/internal/profile"
	"cmpi/internal/sim"
)

// smokeDiv divides every iteration count for the warm-up pass inside set-up
// and for -smoke: the same worlds are built, each runs ~1/20 of the work.
const smokeDiv = 20

// testbed is the paper's Chameleon node: 2 sockets x 12 cores, one HCA.
func testbed(hosts int) cluster.Spec {
	return cluster.Spec{Hosts: hosts, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
}

// pass is one repetition of one workload: the seeded inputs it generates,
// and everything it observes — checks, virtual results, and the counters of
// every world it ran. A pass is built fresh per repetition from the same
// seed, so every repetition of a run does identical work.
type pass struct {
	rng  *rand.Rand
	seed int64
	div  int     // iteration divisor: 1 measured, smokeDiv warm-up
	tr   *tracer // nil when tracing is off; traced passes also turn Options.Profile on

	attempted, failed int
	failures          []string // first few failed checks, for the report

	virt   sim.Time  // summed virtual job time of every world
	digest hash.Hash // SHA-256 over every virtual result, in order

	sim      profile.SimStats     // summed over worlds; Max* fields are maxima
	channels profile.ChannelStats // traced repetitions only
	mpiTime  sim.Time             // for comm_fraction, traced repetitions only
	appTime  sim.Time
	retrans  uint64 // fabric retransmits (faults-16)
}

func newPass(seed int64, div int, tr *tracer) *pass {
	return &pass{
		rng: rand.New(rand.NewSource(seed)), seed: seed, div: div,
		tr: tr, digest: sha256.New(),
	}
}

// iters scales an iteration count by the pass divisor, never below 1.
func (p *pass) iters(n int) int { return max(n/p.div, 1) }

// check counts one correctness check; what names it when it fails.
func (p *pass) check(ok bool, what string, args ...any) {
	p.attempted++
	if ok {
		return
	}
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(what, args...))
	}
}

// result folds one virtual result into the digest. Values are written with
// every digit, so two runs share a digest only when the simulated statistics
// are bit-identical.
func (p *pass) result(name string, v float64) {
	fmt.Fprintf(p.digest, "%s=%s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

// series checks an OSU sweep (one finite positive value per size) and folds
// it into the digest.
func (p *pass) series(name string, sizes []int, s osu.Series, err error) {
	p.check(err == nil, "%s: %v", name, err)
	p.check(len(s) == len(sizes), "%s: %d points for %d sizes", name, len(s), len(sizes))
	for _, r := range s {
		p.check(r.Value > 0 && !math.IsInf(r.Value, 0) && !math.IsNaN(r.Value), "%s: %d B -> %v", name, r.Bytes, r.Value)
		p.result(fmt.Sprintf("%s/%d", name, r.Bytes), r.Value)
	}
}

// jitter draws the exact byte count measured around a nominal size point:
// up to 1/512 below it, in multiples of align. No two seeds measure the
// identical sweep, yet the work differs by well under every metric's bound
// and a size never crosses a protocol threshold upward.
func (p *pass) jitter(size, align int) int {
	span := size / 512 / align
	if span == 0 {
		return size
	}
	return size - align*p.rng.Intn(span+1)
}

// sizes jitters every point of a sweep. The points keep their order: the
// order they are visited in moves host time by several percent (pools and
// the heap warm differently), which between seeds would read as noise.
func (p *pass) sizes(nominal []int, align int) []int {
	out := make([]int, len(nominal))
	for i, n := range nominal {
		out[i] = p.jitter(n, align)
	}
	return out
}

// pattern fills buf with a seed- and salt-dependent byte pattern whose every
// position is checkable without a reference copy.
func pattern(buf []byte, seed int64, salt int) {
	base := patternBase(seed, salt)
	for i := range buf {
		buf[i] = base ^ byte(i*7+i>>8)
	}
}

func patternBase(seed int64, salt int) byte {
	return byte(uint64(seed)*0x9E3779B97F4A7C15>>56) ^ byte(salt*31)
}

// patternOK reports whether buf still holds pattern(seed, salt).
func patternOK(buf []byte, seed int64, salt int) bool {
	base := patternBase(seed, salt)
	for i, b := range buf {
		if b != base^byte(i*7+i>>8) {
			return false
		}
	}
	return true
}

// deployFn places a job on a fresh cluster.
type deployFn func(c *cluster.Cluster) (*cluster.Deployment, error)

func containers(perHost, procs int) deployFn {
	return func(c *cluster.Cluster) (*cluster.Deployment, error) {
		return cluster.Containers(c, perHost, procs, cluster.PaperScenarioOpts())
	}
}

// world builds a fresh cluster, deployment and world (a World is single-shot,
// so every job of a repetition pays construction), each call under its span.
func (p *pass) world(hosts int, deploy deployFn, opts mpi.Options) (*mpi.World, error) {
	opts.Profile = p.tr != nil
	end := p.tr.begin("cluster.New")
	c, err := cluster.New(testbed(hosts))
	end()
	if err != nil {
		return nil, err
	}
	end = p.tr.begin("cluster.Deploy")
	d, err := deploy(c)
	end()
	if err != nil {
		return nil, err
	}
	end = p.tr.begin("mpi.NewWorld")
	w, err := mpi.NewWorld(d, opts)
	end()
	return w, err
}

// job builds a world, runs fn on it under a span named name, and collects the
// world's virtual time and counters.
func (p *pass) job(name string, hosts int, deploy deployFn, opts mpi.Options, fn func(w *mpi.World) error) {
	end := p.tr.begin(name)
	defer end()
	w, err := p.world(hosts, deploy, opts)
	if err == nil {
		run := p.tr.begin(name + ".run")
		err = fn(w)
		run()
	}
	p.check(err == nil, "%s: %v", name, err)
	if w != nil {
		p.collect(name, w)
	}
}

// collect folds a finished world into the pass.
func (p *pass) collect(name string, w *mpi.World) {
	p.addVirt(name, w.MaxBodyTime())
	p.addSim(w.SimStats())
	if w.Prof != nil {
		ch := w.Prof.TotalChannels()
		p.channels.Merge(&ch)
		for _, rp := range w.Prof.Ranks {
			p.mpiTime += rp.TotalMPI
			p.appTime += rp.AppTime
		}
	}
}

func (p *pass) addVirt(name string, t sim.Time) {
	p.virt += t
	p.result(name+".virt_ns", t.Nanos())
}

func (p *pass) addSim(s profile.SimStats) {
	t := &p.sim
	t.Dispatched += s.Dispatched
	t.StaleWakes += s.StaleWakes
	t.CoalescedWakes += s.CoalescedWakes
	t.ParallelBatches += s.ParallelBatches
	t.RegroupYields += s.RegroupYields
	t.NarrowedPairs += s.NarrowedPairs
	t.MaxBatchWidth = max(t.MaxBatchWidth, s.MaxBatchWidth)
	t.MaxHeapDepth = max(t.MaxHeapDepth, s.MaxHeapDepth)
	t.PeakProcBytes = max(t.PeakProcBytes, s.PeakProcBytes)
	t.BufPool.Gets += s.BufPool.Gets
	t.BufPool.Hits += s.BufPool.Hits
	t.ObjPool.Gets += s.ObjPool.Gets
	t.ObjPool.Hits += s.ObjPool.Hits
}
