package ib

import (
	"maps"
	"runtime"
	"testing"

	"cmpi/internal/core"
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
	devA, devB, qa, _, cqa, _ := fx.pairOn(t, a, b)
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
	c := devA.pool.Counters()
	c.Add(devB.pool.Counters())
	if c.Gets != posts || c.Gets-c.Hits != 1 {
		t.Fatalf("pool counters %+v: want %d requests served from 1 allocation (every failed post returns its buffer)", c, posts)
	}
}

// TestOpenDeviceWithSharesOnePool: a device opened on its process's pool takes
// its QPs' wire buffers from that pool and leaves draining it to the process;
// a device from OpenDevice has a pool of its own, which nothing drains.
func TestOpenDeviceWithSharesOnePool(t *testing.T) {
	fx := newFixture(t, 2)
	var home core.BufPool
	shared, err := fx.fabric.OpenDeviceWith(fx.clu.Host(0).NativeEnv(), &home)
	if err != nil {
		t.Fatal(err)
	}
	own, err := fx.fabric.OpenDevice(fx.clu.Host(1).NativeEnv())
	if err != nil {
		t.Fatal(err)
	}
	qs, qo := shared.CreateQP(shared.CreateCQ(), nil), own.CreateQP(own.CreateCQ(), nil)
	if err := Connect(qs, qo); err != nil {
		t.Fatal(err)
	}
	qs.WireBuf(100)
	qo.WireBuf(100)
	qo.WireBuf(100)
	if c := home.Counters(); c.Gets != 1 {
		t.Errorf("the process's pool served %d wire buffers, want 1", c.Gets)
	}
	if c := own.pool.Counters(); c.Gets != 2 {
		t.Errorf("the device's own pool served %d wire buffers, want 2", c.Gets)
	}
	home.Put(make([]byte, 128))
	own.pool.Put(make([]byte, 128))
	var dr core.Drain
	fx.fabric.DrainPools(&dr)
	home.Get(128)
	own.pool.Get(128)
	if c := home.Counters(); c.Hits != 1 {
		t.Error("the fabric drained a pool it was given")
	}
	if c := own.pool.Counters(); c.Hits != 1 {
		t.Error("the fabric drained the pool OpenDevice made")
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

// TestDrainedRecordsServeTheNextFabric: a drained fabric leaves its devices'
// event records to the depot, and the next fabric's devices take them instead
// of allocating. A fabric whose job ended cleanly hands its CQs on with their
// batches (Recycle), cleared so that they keep no QP or wire buffer alive,
// and the next fabric's CQs complete into those batches without growing new
// ones.
func TestDrainedRecordsServeTheNextFabric(t *testing.T) {
	const msgs = 4
	exchange := func() (*fixture, [2]*CQ) {
		fx := newFixture(t, 2)
		a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
		_, _, qa, qb, cqa, cqb := fx.pairOn(t, a, b)
		fx.eng.Go("recv", func(p *sim.Proc) {
			cqb.SetWaiter(p)
			buf := make([]byte, 64)
			for i := 0; i < msgs; i++ {
				qb.PostRecv(p, uint64(i), buf)
				waitCQE(p, cqb, OpRecv)
			}
		})
		fx.eng.Go("send", func(p *sim.Proc) {
			cqa.SetWaiter(p)
			for i := 0; i < msgs; i++ {
				qa.PostSend(p, uint64(i), make([]byte, 64), 0)
				waitCQE(p, cqa, OpSend)
			}
		})
		if err := fx.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return fx, [2]*CQ{cqa, cqb}
	}
	// arrays lists the CQs' batches, by the address of their first entry.
	arrays := func(cqs [2]*CQ) map[*CQE]bool {
		m := map[*CQE]bool{}
		for _, q := range cqs {
			for _, b := range [][]CQE{q.entries, q.spare} {
				if cap(b) == 0 {
					t.Fatalf("a batch of a CQ that completed %d operations was never grown", msgs)
				}
				m[&b[:1][0]] = true
			}
		}
		return m
	}
	first, cqs := exchange()
	batches := [][]CQE{cqs[1].entries, cqs[1].spare}
	had := arrays(cqs)
	var dr core.Drain
	first.fabric.DrainPools(&dr)
	first.fabric.Recycle(&dr)
	for i, b := range batches {
		for j, e := range b[:cap(b)] {
			if e.QP != nil || e.Buf != nil || e.Bytes != 0 {
				t.Errorf("entry %d of recycled batch %d still holds %+v", j, i, e)
			}
		}
	}
	second, next := exchange()
	if got := arrays(next); !maps.Equal(got, had) {
		t.Errorf("the next fabric's CQs completed into %d batches other than the %d recycled ones", len(got), len(had))
	}
	if c := second.fabric.ObjCounters(); c.Gets != c.Hits+c.Depot || c.Depot == 0 {
		t.Errorf("the second fabric allocated %d event records and took %d from the depot (%+v); want 0 and some", c.Gets-c.Hits-c.Depot, c.Depot, c)
	}
}

// TestRecycledDevicesServeTheNextFabric: a fabric whose job ended cleanly
// hands its devices, CQs, QPs and QP extensions to the depot, zeroed but for
// the arrays an extension keeps, and the next fabric opens, creates and
// extends with them. ObjCounters still counts what the recycled devices did.
func TestRecycledDevicesServeTheNextFabric(t *testing.T) {
	first := newFixture(t, 2)
	a, b := first.clu.Host(0).NativeEnv(), first.clu.Host(1).NativeEnv()
	devA, devB, qa, qb, cqa, cqb := first.pairOn(t, a, b)
	first.eng.Go("send", func(p *sim.Proc) {
		cqa.SetWaiter(p)
		qa.PostSend(p, 1, make([]byte, 64), 0)
		waitCQE(p, cqa, OpSend)
	})
	first.eng.Go("recv", func(p *sim.Proc) {
		cqb.SetWaiter(p)
		p.Advance(sim.Millisecond) // the message waits on qb's early-arrival queue
		qb.PostRecv(p, 1, make([]byte, 64))
		waitCQE(p, cqb, OpRecv)
	})
	if err := first.eng.Run(); err != nil {
		t.Fatal(err)
	}
	aux := qb.aux
	if aux == nil || cap(aux.inQ) == 0 {
		t.Fatal("the early arrival left qb no extension with a queue")
	}
	counted := first.fabric.ObjCounters()
	var dr core.Drain
	first.fabric.DrainPools(&dr)
	first.fabric.Recycle(&dr)
	if got := first.fabric.ObjCounters(); got != counted {
		t.Errorf("ObjCounters after Recycle = %+v, want %+v", got, counted)
	}
	if *qa != (QP{}) || *qb != (QP{}) || cqa.dev != nil || cqb.waiter != nil || devA.fabric != nil || devB.Env != nil {
		t.Error("Recycle left a QP, a CQ or a device holding state")
	}
	if len(aux.inQ) != 0 || cap(aux.inQ) == 0 || aux.inQ[:1][0].payload != nil {
		t.Errorf("qb's extension went with an early-arrival queue of len %d cap %d, want its array, empty and cleared", len(aux.inQ), cap(aux.inQ))
	}

	second := newFixture(t, 2)
	devs, cqs, qps := map[*Device]bool{devA: true, devB: true}, map[*CQ]bool{cqa: true, cqb: true}, map[*QP]bool{qa: true, qb: true}
	_, _, na, nb, ncqa, ncqb := second.pairOn(t, a, b)
	for _, d := range second.fabric.devices {
		if !devs[d] {
			t.Error("the next fabric opened a new device instead of a recycled one")
		}
	}
	if !cqs[ncqa] || !cqs[ncqb] || !qps[na] || !qps[nb] {
		t.Error("the next fabric made a new CQ or QP instead of a recycled one")
	}
	if na.more(); na.aux != aux && nb.more() != aux {
		t.Error("the next fabric's QPs made a new extension instead of the recycled one")
	}
}

// sendRecvMallocs counts the heap objects allocated while one process sends
// msgs 64-byte messages on a fresh QP pair, one every 10 µs, each waited for
// before the next, and the other posts a receive for each: before the message
// arrives, so that it waits on the receive queue, or once it has arrived
// (late), so that the message waits on the early-arrival queue. The least of
// three runs, as in oneSidedMallocs.
func sendRecvMallocs(t *testing.T, msgs int, late bool) uint64 {
	t.Helper()
	const period = 10 * sim.Microsecond
	until := func(p *sim.Proc, at sim.Time) {
		if d := at - p.Now(); d > 0 {
			p.Advance(d)
		}
	}
	least := ^uint64(0)
	for run := 0; run < 3; run++ {
		fx := newFixture(t, 2)
		a, b := fx.clu.Host(0).NativeEnv(), fx.clu.Host(1).NativeEnv()
		_, _, qa, qb, cqa, cqb := fx.pairOn(t, a, b)
		fx.eng.Go("recv", func(p *sim.Proc) {
			cqb.SetWaiter(p)
			buf := make([]byte, 64)
			for i := 0; i < msgs; i++ {
				at := sim.Time(i) * period
				if late {
					at += period / 2
				}
				until(p, at)
				qb.PostRecv(p, uint64(i), buf)
				waitCQE(p, cqb, OpRecv)
			}
		})
		fx.eng.Go("send", func(p *sim.Proc) {
			cqa.SetWaiter(p)
			payload := make([]byte, 64)
			for i := 0; i < msgs; i++ {
				until(p, sim.Time(i)*period)
				qa.PostSend(p, uint64(i), payload, 0)
				waitCQE(p, cqa, OpSend)
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

// TestPostSendRecvSteadyStateAllocs: raw verbs SEND/RECV with one message in
// flight costs no heap object per message in steady state. A receive queue
// and an early-arrival queue keep the front of their arrays when an entry
// leaves, so the next post reuses the slot instead of growing a new array.
func TestPostSendRecvSteadyStateAllocs(t *testing.T) {
	const few, many = 64, 1088
	for _, late := range []bool{false, true} {
		per := (float64(sendRecvMallocs(t, many, late)) - float64(sendRecvMallocs(t, few, late))) / (many - few)
		t.Logf("receive posted late=%v: %.3f allocations/message", late, per)
		if per > 0.01 {
			t.Errorf("SEND/RECV (receive posted late=%v) allocates %.3f objects per message in steady state, want none", late, per)
		}
	}
}
