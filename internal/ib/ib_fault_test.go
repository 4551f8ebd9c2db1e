package ib

import (
	"testing"

	"cmpi/internal/fault"
	"cmpi/internal/sim"
)

// armFaults builds an injector for the plan and installs it on the fixture's
// fabric with the given retry policy (non-positive knobs: the defaults).
func (fx *fixture) armFaults(t *testing.T, p *fault.Plan, retryCnt int, retryTO sim.Time) {
	t.Helper()
	inj, err := fault.NewInjector(p, fx.clu.Spec.Hosts, 64)
	if err != nil {
		t.Fatal(err)
	}
	fx.fabric.SetFaults(inj, retryCnt, retryTO)
}

func TestLinkFlapDefersTransfer(t *testing.T) {
	const flapEnd = 40 * sim.Microsecond
	fx := newFixture(t, 2)
	fx.armFaults(t, fault.NewPlan().LinkFlap(0, 0, flapEnd), 0, 0)
	a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
	_, _, qa, qb, _, cqb := fx.pairOn(t, a, b)
	var at sim.Time
	fx.eng.Go("recv", func(p *sim.Proc) {
		cqb.SetWaiter(p)
		qb.PostRecv(p, 1, make([]byte, 16))
		waitCQE(p, cqb, OpRecv)
		at = p.Now()
	})
	fx.eng.Go("send", func(p *sim.Proc) {
		qa.PostSend(p, 1, []byte{1}, 0)
	})
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at < flapEnd {
		t.Fatalf("message arrived at %v, inside the flap window ending %v", at, flapEnd)
	}
}

func TestLinkDegradeStretchesLargeTransfer(t *testing.T) {
	const msg = 1 << 20
	run := func(t *testing.T, degrade bool) sim.Time {
		t.Helper()
		fx := newFixture(t, 2)
		if degrade {
			fx.armFaults(t, fault.NewPlan().LinkDegrade(0, 0, 0, 4), 0, 0)
		}
		a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
		_, _, qa, qb, _, cqb := fx.pairOn(t, a, b)
		var at sim.Time
		fx.eng.Go("recv", func(p *sim.Proc) {
			cqb.SetWaiter(p)
			qb.PostRecv(p, 1, make([]byte, msg))
			waitCQE(p, cqb, OpRecv)
			at = p.Now()
		})
		fx.eng.Go("send", func(p *sim.Proc) {
			qa.PostSend(p, 1, make([]byte, msg), 0)
		})
		if err := fx.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	clean := run(t, false)
	slow := run(t, true)
	if slow < clean*2 {
		t.Fatalf("4x degrade moved a %v transfer only to %v", clean, slow)
	}
}

func TestLoopStallDefersLoopback(t *testing.T) {
	const stallEnd = 30 * sim.Microsecond
	fx := newFixture(t, 1)
	fx.armFaults(t, fault.NewPlan().LoopStall(0, 0, stallEnd), 0, 0)
	a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(0).NativeEnv()
	_, _, qa, qb, _, cqb := fx.pairOn(t, a, b)
	var at sim.Time
	fx.eng.Go("recv", func(p *sim.Proc) {
		cqb.SetWaiter(p)
		qb.PostRecv(p, 1, make([]byte, 16))
		waitCQE(p, cqb, OpRecv)
		at = p.Now()
	})
	fx.eng.Go("send", func(p *sim.Proc) {
		qa.PostSend(p, 1, []byte{1}, 0)
	})
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at < stallEnd {
		t.Fatalf("loopback message arrived at %v, inside the stall window ending %v", at, stallEnd)
	}
}

func TestSendDropRetransmitsWithBackoff(t *testing.T) {
	const retryTO = 10 * sim.Microsecond
	fx := newFixture(t, 2)
	fx.armFaults(t, fault.NewPlan().SendDrops(0, 0, 0, 2), 7, retryTO)
	a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
	_, _, qa, qb, cqa, cqb := fx.pairOn(t, a, b)
	var e, sent CQE
	var at sim.Time
	fx.eng.Go("recv", func(p *sim.Proc) {
		cqb.SetWaiter(p)
		qb.PostRecv(p, 1, make([]byte, 16))
		e = waitCQE(p, cqb, OpRecv)
		at = p.Now()
	})
	fx.eng.Go("send", func(p *sim.Proc) {
		cqa.SetWaiter(p)
		qa.PostSend(p, 1, []byte{1}, 0)
		sent = waitCQE(p, cqa, OpSend)
	})
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Status != WCSuccess {
		t.Fatalf("recv CQE status = %v", e.Status)
	}
	// Two drops: the message leaves on the third attempt, after TO + 2*TO of
	// exponential backoff.
	if at < 3*retryTO {
		t.Fatalf("message arrived at %v, before the two backoff timeouts (%v)", at, 3*retryTO)
	}
	if sent.Status != WCSuccess || sent.Retries != 2 {
		t.Fatalf("send CQE = %+v, want success after 2 retransmissions", sent)
	}
}

func TestRetryExhaustionBreaksPair(t *testing.T) {
	fx := newFixture(t, 2)
	// Unlimited-duration drops with a budget far above retry_cnt = 2.
	fx.armFaults(t, fault.NewPlan().SendDrops(0, 0, 0, 100), 2, 5*sim.Microsecond)
	a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
	_, _, qa, qb, cqa, cqb := fx.pairOn(t, a, b)
	var local, remote, flushed CQE
	exceeded := 0 // retry-exceeded completions on the sender's CQ
	fx.eng.Go("recv", func(p *sim.Proc) {
		cqb.SetWaiter(p)
		qb.PostRecv(p, 1, make([]byte, 16))
		for {
			if es := cqb.Poll(p); len(es) > 0 {
				remote = es[0]
				return
			}
			p.Park()
		}
	})
	fx.eng.Go("send", func(p *sim.Proc) {
		cqa.SetWaiter(p)
		qa.PostSend(p, 42, []byte{1}, 0)
		for local.QP == nil {
			es := cqa.Poll(p)
			for _, e := range es {
				if e.Status == WCRetryExceeded {
					exceeded++
				}
			}
			if len(es) > 0 {
				local = es[0]
			} else {
				p.Park()
			}
		}
		// Work posted to a broken QP must flush, not hang or transmit.
		qa.PostSend(p, 43, []byte{2}, 0)
		for {
			for _, e := range cqa.Poll(p) {
				if e.Status == WCRetryExceeded {
					exceeded++
				}
				if e.WRID == 43 {
					flushed = e
					return
				}
			}
			p.Park()
		}
	})
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if local.Status != WCRetryExceeded || local.WRID != 42 || local.Retries != 3 {
		t.Fatalf("local CQE = %+v, want retry-exceeded wrid=42 retries=3", local)
	}
	if remote.Status != WCRemoteAbort {
		t.Fatalf("remote CQE = %+v, want remote-abort", remote)
	}
	if !qa.Broken() || !qb.Broken() {
		t.Fatal("QPs not in error state after retry exhaustion")
	}
	if exceeded != 1 {
		t.Fatalf("%d retry-exceeded completions on the send CQ, want 1", exceeded)
	}
	if flushed.Status != WCFlushed {
		t.Fatalf("post on broken QP completed %+v, want flushed", flushed)
	}
}
