package mpi

import (
	"fmt"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// policyDeployments are the pair placements of the channel matrix: native,
// the paper's co-resident containers, fully isolated ones, containers that
// share IPC but not PID (shmRndvWorld), and two hosts.
var policyDeployments = []struct {
	name  string
	world func(*testing.T, Options) *World
}{
	{"native", scenarioWorld("native")},
	{"2cont", scenarioWorld("2cont")},
	{"isolated", scenarioWorld("isolated")},
	{"ipc-only", func(t *testing.T, opts Options) *World { return shmRndvWorld(t, 2, opts) }},
	{"2host", scenarioWorld("2host")},
}

// scenarioWorld builds a two-rank testWorld of the named scenario.
func scenarioWorld(scenario string) func(*testing.T, Options) *World {
	return func(t *testing.T, opts Options) *World { return testWorld(t, scenario, 2, opts) }
}

// rmaChan is the trace code of a raw channel, as RMA records carry it.
var rmaChan = map[core.Channel]trace.PathCode{
	core.ChannelSHM: trace.ChanSHM, core.ChannelCMA: trace.ChanCMA, core.ChannelHCA: trace.ChanHCA,
}

// TestOneChannelPolicy is the channel matrix: on every deployment, under
// both modes and both MV2_SMP_USE_CMA settings, at every size-class
// boundary, one Send, one Ssend, one Put and one Get take the channel
// core.SelectPath gives the pair. The Send takes SelectPath's path; the
// Ssend a rendezvous, the one a 256 KiB Send takes, whatever its size; the
// Put and the Get SelectPath's channel.
func TestOneChannelPolicy(t *testing.T) {
	tun := DefaultOptions().Tunables
	eager, iba := tun.SMPEagerSize, tun.IBAEagerThreshold
	sizes := []int{1, eager - 1, eager, iba, iba + 1, 256 << 10}
	largest := len(sizes) - 1
	for _, d := range policyDeployments {
		for _, mode := range []core.Mode{core.ModeDefault, core.ModeLocalityAware} {
			for _, useCMA := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%v/cma=%v", d.name, mode, useCMA), func(t *testing.T) {
					opts := DefaultOptions()
					opts.Mode = mode
					opts.Tunables.UseCMA = useCMA
					opts.Record = trace.NewRecorder(nil)
					w := d.world(t, opts)
					var caps core.PeerCapabilities
					err := w.Run(func(r *Rank) error {
						win := r.WinCreate(make([]byte, 256<<10))
						defer win.Free()
						buf, got := make([]byte, 256<<10), make([]byte, 256<<10)
						for _, n := range sizes {
							if r.Rank() == 0 {
								caps = r.peer(1).caps
								r.Send(1, 0, buf[:n])
								r.Ssend(1, 1, buf[:n])
								win.Put(1, 0, buf[:n])
								win.Get(1, 0, got[:n])
								win.Flush()
							} else {
								r.Recv(0, 0, buf[:n])
								r.Recv(0, 1, buf[:n])
							}
						}
						win.Fence()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					// Rank 0's user-level records: its collectives run on
					// their own context.
					var recs []trace.Record
					for _, rec := range opts.Record.Trace().Records {
						switch rec.Op {
						case trace.OpSend, trace.OpSsend, trace.OpRMAPut, trace.OpRMAGet:
							if rec.Rank == 0 && rec.Ctx == 0 {
								recs = append(recs, rec)
							}
						}
					}
					if len(recs) != 4*len(sizes) {
						t.Fatalf("rank 0 left %d send/ssend/put/get records, want %d", len(recs), 4*len(sizes))
					}
					largeSend := recs[4*largest].Path
					for i, n := range sizes {
						send, ssend, put, get := recs[4*i], recs[4*i+1], recs[4*i+2], recs[4*i+3]
						want := core.SelectPath(mode, opts.Tunables, caps, n)
						if send.Op != trace.OpSend || send.Path != trace.PathOf(want) {
							t.Errorf("%d B: send record %v %v, want send %v", n, send.Op, send.Path, want)
						}
						p, _ := ssend.Path.Path()
						rndv := p == core.PathSHMRndv || p == core.PathCMARndv || p == core.PathHCARndv
						if ssend.Op != trace.OpSsend || !rndv || ssend.Path != largeSend {
							t.Errorf("%d B: ssend record %v %v, want the rendezvous %v of a 256 KiB send",
								n, ssend.Op, ssend.Path, largeSend)
						}
						for _, rec := range []trace.Record{put, get} {
							if rec.Path != rmaChan[want.Channel()] {
								t.Errorf("%d B: %v on %v, want %v (SelectPath: %v)", n, rec.Op, rec.Path, rmaChan[want.Channel()], want)
							}
						}
					}
				})
			}
		}
	}
}

// TestPutWithoutCMAIsStaged: with MV2_SMP_USE_CMA=0, a 64 KiB Put between
// the paper's co-resident containers is staged through shared memory, as
// two-sided traffic is: it is counted on SHM and takes as long as the same
// Put between containers that cannot use CMA at all (no shared PID
// namespace).
func TestPutWithoutCMAIsStaged(t *testing.T) {
	put := func(w *World) sim.Time {
		var took sim.Time
		if err := w.Run(func(r *Rank) error {
			win := r.WinCreate(make([]byte, 64<<10))
			defer win.Free()
			if r.Rank() == 0 {
				start := r.Now()
				win.Put(1, 0, make([]byte, 64<<10))
				win.Flush()
				took = r.Now() - start
			}
			win.Fence()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return took
	}
	opts, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_SMP_USE_CMA": "0"})
	if err != nil {
		t.Fatal(err)
	}
	opts.Profile = true
	noCMA := testWorld(t, "2cont", 2, opts)
	got := put(noCMA)
	if ch := noCMA.Prof.TotalChannels(); ch.Ops[core.ChannelHCA] != 0 || ch.Bytes[core.ChannelSHM] < 64<<10 {
		t.Errorf("MV2_SMP_USE_CMA=0: channel ops %v bytes %v, want the 64 KiB Put on SHM and nothing on HCA", ch.Ops, ch.Bytes)
	}
	if want := put(shmRndvWorld(t, 2, DefaultOptions())); got != want {
		t.Errorf("MV2_SMP_USE_CMA=0: 64 KiB Put took %v, want %v as between PID-private containers", got, want)
	}
}
