package mpi

import (
	"runtime"
	"testing"
	"unsafe"

	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// One-directional streams. The ping-pongs of alloc_test.go cannot see a pool
// that only ever drains on one side and fills on the other: every buffer the
// receiver retires is the one its own reply needs. osu_bw's pattern can — a
// window of Isends onto a window of Irecvs posted on one buffer, closed by a
// 4-byte ack — so these tests difference two stream lengths and bound the
// steady-state heap bytes per message.

const (
	streamWindow = 64
	streamTag    = 7
	streamAckTag = 8
)

// streamChannels are the four point-to-point channels with a message size
// that selects each on a two-rank world.
var streamChannels = []struct {
	name     string
	scenario string
	mode     core.Mode
	size     int
}{
	{"shm-eager", "1cont", core.ModeLocalityAware, 512},
	{"cma-rndv", "1cont", core.ModeLocalityAware, 64 << 10},
	{"hca-eager", "2cont", core.ModeDefault, 512},
	{"hca-rndv", "2cont", core.ModeDefault, 64 << 10},
}

// streamBody is the blocking rank body: rank 0 streams windows to rank 1.
func streamBody(size, windows int) func(r *Rank) error {
	return func(r *Rank) error {
		buf := make([]byte, size)
		ack := make([]byte, 4)
		reqs := make([]*Request, streamWindow)
		for w := 0; w < windows; w++ {
			if r.Rank() == 0 {
				for i := range reqs {
					reqs[i] = r.Isend(1, streamTag, buf)
				}
				r.WaitAll(reqs...)
				r.Recv(1, streamAckTag, ack)
			} else {
				for i := range reqs {
					reqs[i] = r.Irecv(0, streamTag, buf)
				}
				r.WaitAll(reqs...)
				r.Send(0, streamAckTag, ack)
			}
		}
		return nil
	}
}

// streamProg is streamBody as a machine-native Program.
type streamProg struct {
	size, windows int
	buf, ack      []byte
	reqs          []*Request
	w, i          int
	ackReq        *Request
	st            uint8
}

func (g *streamProg) Step(r *Rank) sim.Flow {
	if g.buf == nil {
		g.buf = make([]byte, g.size)
		g.ack = make([]byte, 4)
		g.reqs = make([]*Request, streamWindow)
	}
	allDone := func() bool {
		for _, req := range g.reqs {
			if !req.done {
				return false
			}
		}
		return true
	}
	for g.w < g.windows {
		switch g.st {
		case 0: // post the window
			for g.i < streamWindow {
				if r.rank == 0 {
					g.reqs[g.i] = r.isendCtx(1, streamTag, collCtxBit, g.buf)
				} else {
					g.reqs[g.i] = r.irecvCtx(0, streamTag, collCtxBit, g.buf)
				}
				g.i++
			}
			g.i = 0
			g.st = 1
			fallthrough
		case 1: // wait for it
			if !r.waitStep(allDone) {
				return sim.More
			}
			g.st = 2
			fallthrough
		case 2: // start the ack
			if r.rank == 0 {
				g.ackReq = r.irecvCtx(1, streamAckTag, collCtxBit, g.ack)
			} else {
				g.ackReq = r.isendCtx(0, streamAckTag, collCtxBit, g.ack)
			}
			g.st = 3
			fallthrough
		default: // finish it
			if !r.waitStep(func() bool { return g.ackReq.done }) {
				return sim.More
			}
			r.putReq(g.ackReq)
			g.ackReq = nil
			g.st = 0
			g.w++
		}
	}
	return sim.Done
}

// streamBytes is the heap the process allocates building one two-rank world
// and streaming the given number of windows through it: the least of three
// runs, since the runtime's own background allocations only ever add. Every
// run starts on an empty depot. The handles the stream holds never go back,
// so a run takes from the depot what it does not return, and what an earlier
// world left there would otherwise serve some runs and not others.
func streamBytes(t *testing.T, scenario string, mode core.Mode, size, windows int, machine bool) uint64 {
	t.Helper()
	least := ^uint64(0)
	for run := 0; run < 3; run++ {
		var m0, m1 runtime.MemStats
		core.DropDepot()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		opts := DefaultOptions()
		opts.Mode = mode
		w := testWorld(t, scenario, 2, opts)
		var err error
		if machine {
			err = w.RunMachine(func(int) Program { return &streamProg{size: size, windows: windows} })
		} else {
			err = w.Run(streamBody(size, windows))
		}
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if d := m1.TotalAlloc - m0.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// TestOneWayStreamSteadyStateBytes: on every channel, with blocking and with
// machine bodies, a one-directional stream allocates nothing per message in
// steady state but the two Request handles the user holds (the Isend's and
// the Irecv's; only the blocking wrappers recycle theirs).
func TestOneWayStreamSteadyStateBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	const few, many = 8, 40
	budget := 2*float64(unsafe.Sizeof(Request{})) + 64
	for _, ch := range streamChannels {
		for _, machine := range []bool{false, true} {
			name := ch.name + "/blocking"
			if machine {
				name = ch.name + "/machine"
			}
			t.Run(name, func(t *testing.T) {
				a := streamBytes(t, ch.scenario, ch.mode, ch.size, few, machine)
				b := streamBytes(t, ch.scenario, ch.mode, ch.size, many, machine)
				per := (float64(b) - float64(a)) / float64((many-few)*streamWindow)
				t.Logf("%.1f B/message (%d B of it user-held requests)", per, 2*unsafe.Sizeof(Request{}))
				if per > budget {
					t.Errorf("one-way stream allocates %.1f B/message in steady state; want <= %.0f", per, budget)
				}
			})
		}
	}
}

// commCollBytes is the heap the process allocates building one six-rank world
// (the non-power-of-two fold) and running the given number of Comm.Allreduce
// and Comm.Reduce rounds on its world communicator: the least of three runs,
// as in streamBytes.
func commCollBytes(t *testing.T, size, calls int) uint64 {
	t.Helper()
	least := ^uint64(0)
	for run := 0; run < 3; run++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		w := testWorld(t, "2cont", 6, DefaultOptions())
		err := w.Run(func(r *Rank) error {
			c := r.CommWorld()
			buf := make([]byte, size)
			for i := 0; i < calls; i++ {
				c.Allreduce(buf, SumInt64)
				c.Reduce(i%c.Size(), buf, SumInt64)
			}
			return nil
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if d := m1.TotalAlloc - m0.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// TestCommCollectivesSteadyStateBytes: the communicator collectives run the
// world's steppers, so their receive scratch comes from the rank's pool like
// the world collectives', and every request they post goes back to it — after
// warm-up, a hundred 64 KiB Comm.Allreduce and Comm.Reduce calls allocate
// neither a scratch-sized buffer nor a Request (less than one, 64 B, per rank
// and round).
func TestCommCollectivesSteadyStateBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	const size, few, many, ranks = 64 << 10, 10, 110, 6
	a := commCollBytes(t, size, few)
	b := commCollBytes(t, size, many)
	per := (float64(b) - float64(a)) / float64((many-few)*ranks)
	t.Logf("%.0f B per rank and Allreduce+Reduce round of %d B", per, size)
	if per >= 64 {
		t.Errorf("Comm.Allreduce+Reduce allocate %.0f B per rank and round in steady state; want < 64 (no scratch buffer, no Request)", per)
	}
}
