package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// testWorld builds a world over the named scenario.
//
//	"native"    — n ranks native on 1 host
//	"1cont"     — n ranks in one container
//	"2cont"     — n ranks across two co-resident containers (paper config)
//	"4cont"     — n ranks across four co-resident containers
//	"isolated"  — n ranks across two co-resident containers w/ private ns
//	"2host"     — n ranks native across 2 hosts
//	"2host4cont" — n ranks across 2 hosts x 2 containers
func testWorld(t *testing.T, scenario string, n int, opts Options) *World {
	t.Helper()
	spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	var d *cluster.Deployment
	var err error
	switch scenario {
	case "native":
		d, err = cluster.Native(cluster.MustNew(spec), n)
	case "1cont":
		d, err = cluster.Containers(cluster.MustNew(spec), 1, n, cluster.PaperScenarioOpts())
	case "2cont":
		d, err = cluster.Containers(cluster.MustNew(spec), 2, n, cluster.PaperScenarioOpts())
	case "4cont":
		d, err = cluster.Containers(cluster.MustNew(spec), 4, n, cluster.PaperScenarioOpts())
	case "isolated":
		d, err = cluster.Containers(cluster.MustNew(spec), 2, n, cluster.IsolatedScenarioOpts())
	case "2host":
		spec.Hosts = 2
		d, err = cluster.Native(cluster.MustNew(spec), n)
	case "2host4cont":
		spec.Hosts = 2
		d, err = cluster.Containers(cluster.MustNew(spec), 2, n, cluster.PaperScenarioOpts())
	default:
		t.Fatalf("unknown scenario %q", scenario)
	}
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

var allScenarios = []string{"native", "1cont", "2cont", "4cont", "isolated", "2host", "2host4cont"}

func TestPingPongAllScenariosAllModes(t *testing.T) {
	sizes := []int{0, 1, 7, 64, 1024, 8192, 65536, 1 << 20}
	ranksFor := map[string]int{"4cont": 4, "2host4cont": 4}
	for _, scenario := range allScenarios {
		for _, mode := range []core.Mode{core.ModeDefault, core.ModeLocalityAware} {
			name := fmt.Sprintf("%s/%v", scenario, mode)
			t.Run(name, func(t *testing.T) {
				opts := DefaultOptions()
				opts.Mode = mode
				n := ranksFor[scenario]
				if n == 0 {
					n = 2
				}
				w := testWorld(t, scenario, n, opts)
				err := w.Run(func(r *Rank) error {
					for _, sz := range sizes {
						msg := make([]byte, sz)
						for i := range msg {
							msg[i] = byte(i * 31)
						}
						if r.Rank() > 1 {
							continue // bystander ranks in wider scenarios
						}
						if r.Rank() == 0 {
							r.Send(1, 42, msg)
							echo := make([]byte, sz)
							st := r.Recv(1, 43, echo)
							if st.Bytes != sz || !bytes.Equal(echo, msg) {
								return fmt.Errorf("echo of %d bytes corrupted (got %d bytes)", sz, st.Bytes)
							}
						} else {
							buf := make([]byte, sz)
							st := r.Recv(0, 42, buf)
							if st.Source != 0 || st.Tag != 42 || st.Bytes != sz {
								return fmt.Errorf("status = %+v", st)
							}
							r.Send(0, 43, buf)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestChannelSelectionMatchesScenario(t *testing.T) {
	// 2 ranks in 2 co-resident containers: default mode must use HCA only;
	// aware mode must use SHM (small) and CMA (large).
	run := func(mode core.Mode) [3]uint64 {
		opts := DefaultOptions()
		opts.Mode = mode
		opts.Profile = true
		w := testWorld(t, "2cont", 2, opts)
		if err := w.Run(func(r *Rank) error {
			small := make([]byte, 1024)
			big := make([]byte, 1<<20)
			if r.Rank() == 0 {
				r.Send(1, 1, small)
				r.Send(1, 2, big)
			} else {
				r.Recv(0, 1, make([]byte, 1024))
				r.Recv(0, 2, make([]byte, 1<<20))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.Prof.TotalChannels().Ops
	}
	def := run(core.ModeDefault)
	if def[core.ChannelSHM] != 0 || def[core.ChannelCMA] != 0 || def[core.ChannelHCA] == 0 {
		t.Errorf("default mode channel ops = %v, want HCA only", def)
	}
	aware := run(core.ModeLocalityAware)
	if aware[core.ChannelSHM] == 0 || aware[core.ChannelCMA] == 0 || aware[core.ChannelHCA] != 0 {
		t.Errorf("aware mode channel ops = %v, want SHM+CMA only", aware)
	}
}

func TestIsolatedContainersFallBackToHCAEvenWhenAware(t *testing.T) {
	opts := DefaultOptions()
	opts.Profile = true
	w := testWorld(t, "isolated", 2, opts)
	if err := w.Run(func(r *Rank) error {
		msg := make([]byte, 4096)
		if r.Rank() == 0 {
			r.Send(1, 0, msg)
		} else {
			r.Recv(0, 0, msg)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ops := w.Prof.TotalChannels().Ops
	if ops[core.ChannelSHM] != 0 || ops[core.ChannelCMA] != 0 || ops[core.ChannelHCA] == 0 {
		t.Errorf("isolated containers must use HCA: %v", ops)
	}
}

func TestNonblockingOverlap(t *testing.T) {
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		const n = 16
		if r.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < n; i++ {
				msg := make([]byte, 2048)
				msg[0] = byte(i)
				reqs = append(reqs, r.Isend(1, i, msg))
			}
			r.WaitAll(reqs...)
		} else {
			var reqs []*Request
			bufs := make([][]byte, n)
			// Post receives in reverse tag order: matching is by tag.
			for i := n - 1; i >= 0; i-- {
				bufs[i] = make([]byte, 2048)
				reqs = append(reqs, r.Irecv(0, i, bufs[i]))
			}
			r.WaitAll(reqs...)
			for i := 0; i < n; i++ {
				if bufs[i][0] != byte(i) {
					return fmt.Errorf("tag %d got payload %d", i, bufs[i][0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	// Non-overtaking: same (src,tag) messages must match in send order.
	for _, scenario := range []string{"2cont", "2host"} {
		t.Run(scenario, func(t *testing.T) {
			w := testWorld(t, scenario, 2, DefaultOptions())
			err := w.Run(func(r *Rank) error {
				const n = 50
				if r.Rank() == 0 {
					for i := 0; i < n; i++ {
						// Mix sizes so eager and rendezvous interleave.
						sz := 64
						if i%3 == 0 {
							sz = 100 * 1024
						}
						msg := make([]byte, sz)
						msg[0] = byte(i)
						r.Send(1, 7, msg)
					}
				} else {
					for i := 0; i < n; i++ {
						buf := make([]byte, 100*1024)
						st := r.Recv(0, 7, buf)
						if buf[0] != byte(i) {
							return fmt.Errorf("message %d arrived out of order (got %d, %d bytes)", i, buf[0], st.Bytes)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := testWorld(t, "4cont", 4, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				buf := make([]byte, 8)
				st := r.Recv(AnySource, AnyTag, buf)
				if seen[st.Source] {
					return fmt.Errorf("duplicate source %d", st.Source)
				}
				seen[st.Source] = true
				if int(buf[0]) != st.Source || st.Tag != 100+st.Source {
					return fmt.Errorf("mismatched payload/source: %v vs %+v", buf[0], st)
				}
			}
		} else {
			r.Send(0, 100+r.Rank(), []byte{byte(r.Rank()), 0, 0, 0, 0, 0, 0, 0})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	w := testWorld(t, "native", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		msg := []byte("to myself")
		rq := r.Irecv(r.Rank(), 5, make([]byte, 16))
		r.Send(r.Rank(), 5, msg)
		st := r.Wait(rq)
		if st.Bytes != len(msg) || st.Source != r.Rank() {
			return fmt.Errorf("self recv status %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeAndIprobe(t *testing.T) {
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			r.Compute(1000) // let rank 1 probe emptiness first
			r.Send(1, 9, make([]byte, 333))
		} else {
			if _, ok := r.Iprobe(0, 9); ok {
				// Unlikely but legal; just consume below.
				_ = ok
			}
			st := r.Probe(0, 9)
			if st.Bytes != 333 || st.Source != 0 {
				return fmt.Errorf("probe status %+v", st)
			}
			// Probe must not consume the message.
			buf := make([]byte, 333)
			st2 := r.Recv(0, 9, buf)
			if st2.Bytes != 333 {
				return fmt.Errorf("recv after probe: %+v", st2)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestBasedPolling(t *testing.T) {
	// Poll with Test while computing.
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			r.Compute(50000)
			r.Send(1, 3, make([]byte, 4096))
		} else {
			rq := r.Irecv(0, 3, make([]byte, 4096))
			spins := 0
			for {
				if _, done := r.Test(rq); done {
					break
				}
				r.Compute(100)
				spins++
				if spins > 1_000_000 {
					return fmt.Errorf("Test never completed")
				}
			}
			if spins == 0 {
				return fmt.Errorf("message completed suspiciously fast")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pollOnce makes one call of the named non-blocking completion call on rq, or
// for Iprobe on a message from src with tag, and reports whether it found
// what it polls for.
func pollOnce(r *Rank, call string, rq *Request, src, tag int) bool {
	switch call {
	case "Test":
		_, ok := r.Test(rq)
		return ok
	case "TestAll":
		return r.TestAll(rq)
	case "TestAny":
		_, _, ok := r.TestAny(rq)
		return ok
	}
	_, ok := r.Iprobe(src, tag)
	return ok
}

// maxPolls bounds the polling loops below, so a call that lets no virtual
// time pass fails its test instead of hanging it.
const maxPolls = 1 << 20

// TestPollingLoopLetsTimePass: a loop of nothing but non-blocking completion
// calls lets virtual time pass, so a message its sender posts after computing
// for a while arrives.
func TestPollingLoopLetsTimePass(t *testing.T) {
	for _, call := range []string{"Test", "TestAll", "TestAny", "Iprobe"} {
		t.Run(call, func(t *testing.T) {
			w := testWorld(t, "1cont", 2, DefaultOptions())
			err := w.Run(func(r *Rank) error {
				buf := make([]byte, 64)
				if r.Rank() == 0 {
					r.Compute(5000)
					fill(buf, 0, 7)
					r.Send(1, tagData, buf)
					return nil
				}
				var rq *Request
				if call != "Iprobe" {
					rq = r.Irecv(0, tagData, buf)
				}
				for i := 0; !pollOnce(r, call, rq, 0, tagData); i++ {
					if i == maxPolls {
						return fmt.Errorf("no message after %d polls, clock at %v", i, r.Now())
					}
				}
				if rq == nil {
					r.Recv(0, tagData, buf)
				}
				checkPattern(t, call+" loop's message", buf, 7)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPollingLoopSeesCrashedPeer: under ErrorsReturn a loop of non-blocking
// completion calls on a receive from a peer that crashes sees the receive
// fail with *ProcFailedError.
func TestPollingLoopSeesCrashedPeer(t *testing.T) {
	for _, call := range []string{"Test", "TestAll", "TestAny"} {
		t.Run(call, func(t *testing.T) {
			opts := DefaultOptions()
			lossCrash2Host.set(&opts)
			w := testWorld(t, lossCrash2Host.scenario, 2, opts)
			err := w.Run(func(r *Rank) error {
				if r.Rank() == 1 {
					return loseSelf(r, lossCrash2Host)
				}
				rq := r.Irecv(1, tagData, make([]byte, 64))
				for i := 0; !pollOnce(r, call, rq, 1, tagData); i++ {
					if i == maxPolls {
						t.Errorf("receive still pending after %d polls, clock at %v", i, r.Now())
						return nil
					}
				}
				var pe *ProcFailedError
				if !errors.As(rq.Err(), &pe) || pe.Peer != 1 {
					t.Errorf("receive ended with %v, want rank 1's ProcFailedError", rq.Err())
				}
				return nil
			})
			var crash *CrashError
			if !errors.As(err, &crash) || crash.Rank != 1 {
				t.Fatalf("Run: %v, want rank 1's CrashError", err)
			}
		})
	}
}

func TestSendrecvExchangeRing(t *testing.T) {
	w := testWorld(t, "2host4cont", 8, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		right := (r.Rank() + 1) % r.Size()
		left := (r.Rank() - 1 + r.Size()) % r.Size()
		out := []byte{byte(r.Rank())}
		in := make([]byte, 1)
		st := r.Sendrecv(right, 0, out, left, 0, in)
		if st.Source != left || in[0] != byte(left) {
			return fmt.Errorf("ring exchange wrong: got %d from %d", in[0], st.Source)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncationIsFatal(t *testing.T) {
	w := testWorld(t, "native", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			r.Send(1, 0, make([]byte, 100))
		} else {
			r.Recv(0, 0, make([]byte, 10)) // too small
		}
		return nil
	})
	if err == nil {
		t.Fatal("truncation not reported")
	}
}

func TestUnmatchedRecvDeadlocks(t *testing.T) {
	w := testWorld(t, "native", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 1 {
			r.Recv(0, 0, make([]byte, 8)) // never sent
		}
		return nil
	})
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestLatencyOrderingAcrossModes(t *testing.T) {
	// One-way small-message time: aware < default in the 2-container
	// scenario, and aware ~ native.
	measure := func(scenario string, mode core.Mode) sim.Time {
		opts := DefaultOptions()
		opts.Mode = mode
		w := testWorld(t, scenario, 2, opts)
		var oneWay sim.Time
		if err := w.Run(func(r *Rank) error {
			const iters = 100
			msg := make([]byte, 1024)
			if r.Rank() == 0 {
				start := r.Now()
				for i := 0; i < iters; i++ {
					r.Send(1, 0, msg)
					r.Recv(1, 1, msg)
				}
				oneWay = (r.Now() - start) / (2 * iters)
			} else {
				for i := 0; i < iters; i++ {
					r.Recv(0, 0, msg)
					r.Send(0, 1, msg)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return oneWay
	}
	def := measure("2cont", core.ModeDefault)
	aware := measure("2cont", core.ModeLocalityAware)
	native := measure("native", core.ModeDefault)
	if aware >= def {
		t.Errorf("aware latency %v not better than default %v", aware, def)
	}
	if def < 3*aware {
		t.Errorf("default %v should be >=3x aware %v at 1KiB (paper: 2.26us vs 0.47us)", def, aware)
	}
	// Aware should be within ~25%% of native.
	if float64(aware) > 1.25*float64(native) {
		t.Errorf("aware %v too far above native %v", aware, native)
	}
}

func TestDeterministicReplay(t *testing.T) {
	digest := func() string {
		w := testWorld(t, "4cont", 8, DefaultOptions())
		if err := w.Run(func(r *Rank) error {
			for iter := 0; iter < 5; iter++ {
				for k := 1; k < r.Size(); k++ {
					dst := (r.Rank() + k) % r.Size()
					src := (r.Rank() - k + r.Size()) % r.Size()
					r.Sendrecv(dst, iter, make([]byte, 1024*(iter+1)), src, iter, make([]byte, 1024*(iter+1)))
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.Digest()
	}
	first := digest()
	for i := 0; i < 3; i++ {
		if got := digest(); got != first {
			t.Fatalf("run %d: digest %s, want %s", i, got, first)
		}
	}
}

// TestPointToPointNamesRankOutside: a point-to-point call naming a rank
// outside the world or the communicator aborts the job with the call and the
// size, rather than a runtime panic, a deadlock report or a silent false.
func TestPointToPointNamesRankOutside(t *testing.T) {
	buf := make([]byte, 8)
	for _, tc := range []struct {
		name, want string
		run        func(r *Rank)
	}{
		{"Ssend", "Ssend to rank 5 outside world of size 2", func(r *Rank) { r.Ssend(5, 0, buf) }},
		{"Probe", "Probe from rank 9 outside world of size 2", func(r *Rank) { r.Probe(9, 0) }},
		{"Iprobe", "Iprobe from rank 9 outside world of size 2", func(r *Rank) { r.Iprobe(9, 0) }},
		{"Comm.Send", "Send to rank 5 outside communicator of size 2", func(r *Rank) { r.CommWorld().Send(5, 0, buf) }},
		{"Comm.Isend", "Isend to rank 2 outside communicator of size 2", func(r *Rank) { r.CommWorld().Isend(2, 0, buf) }},
		{"Comm.Recv", "Recv from rank 7 outside communicator of size 2", func(r *Rank) { r.CommWorld().Recv(7, 0, buf) }},
		{"Comm.Irecv", "Irecv from rank -3 outside communicator of size 2", func(r *Rank) { r.CommWorld().Irecv(-3, 0, buf) }},
		{"Comm.Sendrecv", "Sendrecv from rank 4 outside communicator of size 2", func(r *Rank) { r.CommWorld().Sendrecv(1, 0, buf, 4, 0, buf) }},
		{"Comm.GlobalRank", "GlobalRank of rank 2 outside communicator of size 2", func(r *Rank) { r.CommWorld().GlobalRank(2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(t, "2cont", 2, DefaultOptions())
			err := w.Run(func(r *Rank) error {
				if r.Rank() == 0 {
					tc.run(r)
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
