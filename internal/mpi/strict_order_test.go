package mpi

import (
	"testing"

	"cmpi/internal/sim"
)

// TestFirstContactKeepsTimeOrder: two senders share host 0's HCA port. B
// sends to D at the start, so its traffic is under way, then sends again at a
// later virtual time. A works in short steps and then names C for the first
// time, before B's second send in virtual time but after B's traffic started.
// Events run in strict time order, so A's message finds the port free and C
// completes at the uncontended closed form (docs/MODEL.md T_eager over the
// wire, plus the on-demand connection A's first contact sets up) to the
// picosecond.
//
// Before the engine went back to one dispatch queue, A's first contact
// regrouped it, B's group ran on past A's virtual time and booked the port
// first, and C completed at 96.526µs instead of 94.192µs: 2.334µs late.
func TestFirstContactKeepsTimeOrder(t *testing.T) {
	const n = 1024
	w := testWorld(t, "2host", 4, DefaultOptions()) // ranks 0, 1 on host 0; 2, 3 on host 1
	prm := w.Opts.Params
	msg := make([]byte, n)
	var sentAt, doneAt sim.Time
	err := w.Run(func(r *Rank) error {
		start := r.Now()
		tA := start + 10*sim.Microsecond
		switch r.Rank() {
		case 0: // A
			for r.Now() < tA { // short steps: many events before the send
				r.p.Sleep(10 * sim.Nanosecond)
			}
			sentAt = r.Now()
			r.Send(2, 0, msg)
		case 1: // B
			r.Send(3, 0, msg)
			r.p.Advance(tA + prm.IBConnectSetup + 2*sim.Microsecond - r.Now())
			r.Send(3, 1, msg)
		case 2: // C
			r.Recv(0, 0, make([]byte, n))
			doneAt = r.Now()
		case 3: // D
			r.Recv(1, 0, make([]byte, n))
			r.Recv(1, 1, make([]byte, n))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sentAt + prm.IBConnectSetup + // A's first contact brings up the QP pair
		prm.MemCopy(n, false) + prm.IBPostOverhead + // copy into the wire buffer, post
		prm.IBOpOccupancy(n+hcaHdrLen+48, false) + prm.IBWireLatencyInter + // transit
		prm.IBPollOverhead + prm.EagerRecvCopy(n) // poll, copy out
	if doneAt != want {
		t.Errorf("C completed at %v, want %v: A's message waited %v behind later traffic", doneAt, want, doneAt-want)
	}
}
