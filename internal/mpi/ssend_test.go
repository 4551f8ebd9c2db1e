package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"cmpi/internal/fault"
	"cmpi/internal/sim"
)

func TestSsendCompletesOnlyAfterMatch(t *testing.T) {
	for _, tc := range []struct {
		name, scenario string
		plan           *fault.Plan
	}{
		{"2cont", "2cont", nil},
		{"2host", "2host", nil},
		// The pair's ring cannot be attached: the send restarts on the HCA
		// and must stay a rendezvous there.
		{"2cont-ring-attach-fails", "2cont", fault.NewPlan().ShmAttachFail(0, 0, sim.Second, "cmpi.ring.")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.ErrHandler = ErrorsReturn
			opts.FaultPlan = tc.plan
			opts.Profile = true
			w := testWorld(t, tc.scenario, 2, opts)
			var sendDone, recvPosted sim.Time
			err := w.Run(func(r *Rank) error {
				if r.Rank() == 0 {
					msg := make([]byte, 64) // small: eager would complete instantly
					r.Ssend(1, 0, msg)
					sendDone = r.Now()
				} else {
					r.Compute(100000) // 800us before posting the receive
					recvPosted = r.Now()
					r.Recv(0, 0, make([]byte, 64))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if sendDone < recvPosted {
				t.Errorf("Ssend completed at %v before the receive was posted at %v", sendDone, recvPosted)
			}
			if fell := w.Prof.TotalFaults().ShmFallbacks; (tc.plan != nil) != (fell > 0) {
				t.Errorf("%d SHM->HCA fallbacks under fault plan %v", fell, tc.plan)
			}
		})
	}
}

// TestSsendHonoursDeadCMAChannel: once a CMA read has failed on a pair, an
// Ssend takes the pair's SHM-staged rendezvous like any other send, so the
// pair falls back from CMA once.
func TestSsendHonoursDeadCMAChannel(t *testing.T) {
	opts := DefaultOptions()
	opts.Profile = true
	opts.FaultPlan = fault.NewPlan().CMAFail(0, 0, sim.Second)
	w := testWorld(t, "2cont", 2, opts)
	err := w.Run(func(r *Rank) error {
		buf := make([]byte, 64<<10)
		if r.Rank() == 0 {
			r.Send(1, 0, buf)
			r.Ssend(1, 0, buf)
			r.Ssend(1, 0, buf)
		} else {
			for range 3 {
				r.Recv(0, 0, buf)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Prof.TotalFaults().CMAFallbacks; got != 1 {
		t.Errorf("CMAFallbacks = %d after a Send and two Ssends, want 1", got)
	}
}

func TestSsendDeliversPayload(t *testing.T) {
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			msg := []byte("synchronous hello")
			r.Ssend(1, 3, msg)
		} else {
			buf := make([]byte, 32)
			st := r.Recv(0, 3, buf)
			if !bytes.Equal(buf[:st.Bytes], []byte("synchronous hello")) {
				return fmt.Errorf("ssend payload %q", buf[:st.Bytes])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSsendNoCMAFallsBackToSHMRndv(t *testing.T) {
	opts := DefaultOptions()
	opts.Tunables.UseCMA = false
	w := testWorld(t, "2cont", 2, opts)
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			r.Ssend(1, 0, make([]byte, 64))
		} else {
			r.Recv(0, 0, make([]byte, 64))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
