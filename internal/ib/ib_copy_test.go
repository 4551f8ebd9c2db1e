package ib

import (
	"runtime"
	"testing"

	"cmpi/internal/fault"
	"cmpi/internal/sim"
)

// When each verb reads and writes the caller's memory. The model executes as
// many copies as the hardware would: a SEND is copied once into a wire buffer
// at post time, an RDMA WRITE moves source to remote region when it arrives,
// an RDMA READ moves remote region to destination when the request reaches
// the remote HCA.

// TestPostSendCopiesAtPost: the caller may reuse payload the moment PostSend
// returns (the bench driver posts every message from one buffer).
func TestPostSendCopiesAtPost(t *testing.T) {
	const msgs = 8
	fx := newFixture(t, 2)
	a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
	_, _, qa, qb, _, cqb := fx.pairOn(t, a, b)
	fx.eng.Go("recv", func(p *sim.Proc) {
		cqb.SetWaiter(p)
		buf := make([]byte, 4)
		for i := 0; i < msgs; i++ {
			qb.PostRecv(p, uint64(i), buf)
			waitCQE(p, cqb, OpRecv)
			if want := byte(i + 1); buf[0] != want || buf[3] != want {
				t.Errorf("message %d = %v, want all %d: a later post's bytes leaked in", i, buf, want)
			}
		}
	})
	fx.eng.Go("send", func(p *sim.Proc) {
		payload := make([]byte, 4)
		for i := 0; i < msgs; i++ {
			for j := range payload {
				payload[j] = byte(i + 1)
			}
			qa.PostSend(p, uint64(i), payload, 0)
			for j := range payload {
				payload[j] = 0xEE
			}
		}
	})
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPostWriteCopiesAtArrival: nothing moves at post time, and what lands in
// the remote region is what the source holds when the transfer arrives — the
// zero-copy contract that obliges the poster to leave the source alone until
// its OpWrite completion.
func TestPostWriteCopiesAtArrival(t *testing.T) {
	fx := newFixture(t, 2)
	a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
	_, devB, qa, _, cqa, _ := fx.pairOn(t, a, b)
	target := make([]byte, 4)
	fx.eng.Go("origin", func(p *sim.Proc) {
		cqa.SetWaiter(p)
		mr := devB.RegisterMR(p, target)
		src := []byte("old!")
		qa.PostWrite(p, 1, src, mr, 0, false, 0)
		if string(target) != "\x00\x00\x00\x00" {
			t.Errorf("target = %q right after the post; the write has not arrived yet", target)
		}
		copy(src, "new!")
		waitCQE(p, cqa, OpWrite)
	})
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if string(target) != "new!" {
		t.Fatalf("target = %q, want the bytes present at arrival (%q)", target, "new!")
	}
}

// TestPostReadCopiesAtRequestArrival: the destination receives what the
// remote region holds when the request reaches the remote HCA — later than
// the post, earlier than the completion.
func TestPostReadCopiesAtRequestArrival(t *testing.T) {
	const size = 1 << 20 // the response takes far longer than the request
	fx := newFixture(t, 2)
	a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
	_, devB, qa, _, cqa, _ := fx.pairOn(t, a, b)
	remote := make([]byte, size)
	dst := make([]byte, size)
	var posted, completed sim.Time
	fx.eng.Go("origin", func(p *sim.Proc) {
		cqa.SetWaiter(p)
		mr := devB.RegisterMR(p, remote)
		remote[0], remote[size-1] = 'a', 'a'
		qa.PostRead(p, 1, dst, mr, 0)
		posted = p.Now()
		// Still before the request can have crossed the wire.
		remote[0], remote[size-1] = 'b', 'b'
		waitCQE(p, cqa, OpRead)
		completed = p.Now()
	})
	fx.eng.Go("target", func(p *sim.Proc) {
		// Long after the request arrived, long before the response has.
		p.Sleep(50 * sim.Microsecond)
		remote[0], remote[size-1] = 'c', 'c'
	})
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if posted >= 50*sim.Microsecond || completed <= 50*sim.Microsecond {
		t.Fatalf("read posted at %v and completed at %v: the 50us write no longer falls inside the transfer", posted, completed)
	}
	if dst[0] != 'b' || dst[size-1] != 'b' {
		t.Fatalf("read returned %q...%q, want the bytes present when the request arrived ('b')", dst[0], dst[size-1])
	}
}

// TestFailedPostsReturnOwnedWireBuffers: a wire buffer handed to an owned post
// comes back whether the post exhausts its retries (breaking the pair) or is
// flushed by the already broken QP, so a storm of failing posts allocates one
// buffer, not one each.
func TestFailedPostsReturnOwnedWireBuffers(t *testing.T) {
	const posts = 16
	fx := newFixture(t, 2)
	fx.armFaults(t, fault.NewPlan().SendDrops(0, 0, 0, 1000), 2, 5*sim.Microsecond)
	a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
	_, _, qa, _, cqa, _ := fx.pairOn(t, a, b)
	statuses := map[WCStatus]int{}
	fx.eng.Go("send", func(p *sim.Proc) {
		cqa.SetWaiter(p)
		for i := 0; i < posts; i++ {
			wire := qa.WireBuf(256)
			qa.PostSendOwned(p, uint64(i+1), wire, 0)
			for got := false; !got; {
				for _, e := range cqa.Poll(p) {
					if e.WRID == uint64(i+1) {
						statuses[e.Status]++
						got = true
					}
				}
				if !got {
					p.Park()
				}
			}
		}
	})
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if statuses[WCRetryExceeded] != 1 || statuses[WCFlushed] != posts-1 {
		t.Fatalf("completions = %v, want one retry-exceeded and %d flushed", statuses, posts-1)
	}
	c := fx.fabric.PoolCounters()
	if c.Gets != posts || c.Gets-c.Hits != 1 {
		t.Fatalf("pool counters %+v: want %d requests served from 1 allocation (every failed post returns its buffer)", c, posts)
	}
}

// oneSidedMallocs counts the heap objects allocated while one process posts
// ops one-sided operations on a fresh QP pair, each waited for before the
// next: the least of three runs, since the runtime's own background
// allocations only ever add.
func oneSidedMallocs(t *testing.T, ops int, read bool) uint64 {
	t.Helper()
	least := ^uint64(0)
	for run := 0; run < 3; run++ {
		fx := newFixture(t, 2)
		a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
		_, devB, qa, _, cqa, _ := fx.pairOn(t, a, b)
		local, remote := make([]byte, 4096), make([]byte, 4096)
		fx.eng.Go("origin", func(p *sim.Proc) {
			cqa.SetWaiter(p)
			mr := devB.RegisterMR(p, remote)
			for i := 0; i < ops; i++ {
				if read {
					qa.PostRead(p, uint64(i+1), local, mr, 0)
					waitCQE(p, cqa, OpRead)
				} else {
					qa.PostWrite(p, uint64(i+1), local, mr, 0, false, 0)
					waitCQE(p, cqa, OpWrite)
				}
			}
		})
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		err := fx.eng.Run()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if d := m1.Mallocs - m0.Mallocs; d < least {
			least = d
		}
	}
	return least
}

// TestOneSidedPostsAllocateNothing: in steady state an RDMA WRITE and an RDMA
// READ cost no heap object — their deferred events are pooled records, not
// closures.
func TestOneSidedPostsAllocateNothing(t *testing.T) {
	const few, many = 64, 1088
	for _, read := range []bool{false, true} {
		name := "write"
		if read {
			name = "read"
		}
		per := (float64(oneSidedMallocs(t, many, read)) - float64(oneSidedMallocs(t, few, read))) / (many - few)
		t.Logf("%s: %.3f allocations/op", name, per)
		if per > 0.05 {
			t.Errorf("%s allocates %.2f objects per operation in steady state, want none", name, per)
		}
	}
}
