package mpi

import (
	"cmpi/internal/cma"
	"cmpi/internal/core"
	"cmpi/internal/ib"
	"cmpi/internal/trace"
)

// Win is a one-sided communication window (MPI_Win). Windows are created
// collectively; each rank exposes its buffer and learns peers' buffer
// handles (the simulated analog of the address/rkey exchange).
//
// Data movement per target:
//
//   - co-resident & locality known, small: direct shared-memory store;
//   - co-resident & locality known, large: one CMA call (single copy);
//   - otherwise: RDMA WRITE/READ through the HCA (loopback if co-resident
//     but undetected — the paper's default-mode penalty).
type Win struct {
	r           *Rank
	buf         []byte
	mr          *ib.MR
	peers       []*Win
	outstanding int
	idx         int
	// owned: buf is WinAllocate's, and goes back to the pool at Free.
	owned bool
	// accTmp is Accumulate's last scratch buffer. Its closing put may still
	// be on the wire when Accumulate returns, so it is kept until the window
	// next has nothing outstanding (quiesce).
	accTmp []byte
}

// winExchange is the world-side rendezvous table for collective window
// creation.
type winExchange struct {
	wins []*Win
	seen int
}

// WinCreate collectively creates a window over buf. Every rank must call it
// in the same order with its own buffer.
func (r *Rank) WinCreate(buf []byte) *Win {
	r.profEnter()
	defer r.profExit("Win_create")
	// The window exchange table is job-global, and RMA accesses write peer
	// windows directly; serialize parallel dispatch for the rest of the run.
	r.ensureSerial()
	w := &Win{r: r, buf: buf, idx: r.winCount}
	r.winCount++
	if r.dev != nil {
		w.mr = r.dev.RegisterMR(r.p, buf)
	}
	ex := r.w.winTable[w.idx]
	if ex == nil {
		ex = &winExchange{wins: make([]*Win, r.size)}
		r.w.winTable[w.idx] = ex
	}
	ex.wins[r.rank] = w
	ex.seen++
	r.barrier(r.group())
	w.peers = ex.wins
	return w
}

// WinAllocate collectively creates a window over n bytes of AllocMem memory
// (MPI_Win_allocate): contents undefined, returned to the pool by Free.
func (r *Rank) WinAllocate(n int) *Win {
	w := r.WinCreate(r.AllocMem(n))
	w.owned = true
	return w
}

// Free releases the window collectively. Past its barrier no rank has an
// access to any member's memory in flight, so a WinAllocate window's memory
// goes back to the pool here.
func (w *Win) Free() {
	w.r.profEnter()
	defer w.r.profExit("Win_free")
	w.quiesce()
	w.r.barrier(w.r.group())
	if w.owned {
		w.owned = false
		w.r.FreeMem(w.buf)
		w.buf = nil
	}
}

// quiesce blocks until every RMA operation this rank issued on the window
// has completed remotely; nothing references Accumulate's scratch after that.
func (w *Win) quiesce() {
	w.r.waitUntil(func() bool { return w.outstanding == 0 })
	w.r.FreeMem(w.accTmp)
	w.accTmp = nil
}

// Put writes data into target's window at offset. Completion is local
// immediately for memory paths; network puts complete at Flush/Fence.
func (w *Win) Put(target, offset int, data []byte) {
	w.r.profEnter()
	defer w.r.profExit("Put")
	w.access(target, offset, data, true)
}

// Get reads len(dst) bytes from target's window at offset into dst.
// Memory paths complete immediately; network gets complete at Flush/Fence.
func (w *Win) Get(target, offset int, dst []byte) {
	w.r.profEnter()
	defer w.r.profExit("Get")
	w.access(target, offset, dst, false)
}

func (w *Win) access(target, offset int, data []byte, isPut bool) {
	r := w.r
	if target < 0 || target >= r.size {
		r.p.Fatalf("RMA target %d outside world of size %d", target, r.size)
	}
	tw := w.peers[target]
	if offset < 0 || offset+len(data) > len(tw.buf) {
		r.p.Fatalf("RMA access [%d,%d) outside %d-byte window of rank %d",
			offset, offset+len(data), len(tw.buf), target)
	}
	prm := &r.w.Opts.Params

	if target == r.rank {
		r.p.Advance(prm.MemCopy(len(data), false))
		if isPut {
			copy(w.buf[offset:], data)
		} else {
			copy(data, w.buf[offset:])
		}
		return
	}

	pr := r.peer(target)
	cap := pr.caps
	// local: the target is reachable via local memory under the current mode,
	// i.e. the library knows the peer is co-resident and the IPC namespace is
	// shared.
	local := core.TreatLocal(r.w.Opts.Mode, cap) && cap.SharedIPC
	cs := r.crossSocket(target)
	switch {
	case local && (len(data) < r.w.Opts.Tunables.SMPEagerSize || !cap.SharedPID):
		// Small (or CMA-less): through the shared-memory window mapping.
		// Without a shared PID namespace the large path needs staging, so
		// charge a double copy.
		cost := prm.ShmPostOverhead + prm.MemCopy(len(data), cs) + r.containerOverhead()
		if len(data) >= r.w.Opts.Tunables.SMPEagerSize {
			cost += prm.MemCopy(len(data), cs)
		}
		r.p.Advance(cost)
		if isPut {
			copy(tw.buf[offset:], data)
		} else {
			copy(data, tw.buf[offset:])
		}
		r.countOp(core.ChannelSHM, len(data))
		w.traceAccess(isPut, trace.ChanSHM, target, len(data))

	case local && cap.SharedPID && r.w.Opts.Tunables.UseCMA:
		// Large: one process_vm_* call, single copy.
		r.p.Advance(prm.CMACopy(len(data), cs) + r.containerOverhead())
		targetEnv := r.w.Deploy.Placements[target].Env
		var err error
		if isPut {
			_, err = cma.Writev(r.env, targetEnv, tw.buf[offset:offset+len(data)], data)
		} else {
			_, err = cma.Readv(r.env, targetEnv, data, tw.buf[offset:offset+len(data)])
		}
		if err != nil {
			r.p.Fatalf("CMA RMA to rank %d: %v", target, err)
		}
		r.countOp(core.ChannelCMA, len(data))
		w.traceAccess(isPut, trace.ChanCMA, target, len(data))

	default:
		// Network path (including HCA loopback for undetected co-residents).
		if tw.mr == nil {
			r.p.Fatalf("RMA to rank %d needs the HCA but target window is unregistered", target)
		}
		qp := r.qpFor(pr)
		r.nextWrid++
		r.wridOps[r.nextWrid] = wridRef{win: w}
		w.outstanding++
		if isPut {
			qp.PostWrite(r.p, r.nextWrid, data, tw.mr, offset, false, 0)
		} else {
			qp.PostRead(r.p, r.nextWrid, data, tw.mr, offset)
		}
		r.countOp(core.ChannelHCA, len(data))
		w.traceAccess(isPut, trace.ChanHCA, target, len(data))
	}
}

// traceAccess records one remote one-sided access with the channel it used
// (self-accesses are plain local copies and are not traced, matching the
// profiler, which does not count them either).
func (w *Win) traceAccess(isPut bool, ch trace.PathCode, target, bytes int) {
	op := trace.OpRMAGet
	if isPut {
		op = trace.OpRMAPut
	}
	w.r.trace(op, ch, target, 0, 0, bytes, 0)
}

// Accumulate combines data into target's window at offset with op
// (MPI_Accumulate with a predefined reduction). The model performs a
// get-modify-put: remote atomicity holds because a window's accumulate
// epoch is bounded by Fence/Flush synchronization, as MPI requires for
// non-overlapping accesses.
func (w *Win) Accumulate(target, offset int, data []byte, op ReduceOp) {
	w.r.profEnter()
	defer w.r.profExit("Accumulate")
	r := w.r
	if target < 0 || target >= r.size {
		r.p.Fatalf("Accumulate target %d outside world of size %d", target, r.size)
	}
	tw := w.peers[target]
	if offset < 0 || offset+len(data) > len(tw.buf) {
		r.p.Fatalf("Accumulate [%d,%d) outside %d-byte window of rank %d",
			offset, offset+len(data), len(tw.buf), target)
	}
	cur := r.AllocMem(len(data))
	w.access(target, offset, cur, false) // get
	w.Flush()
	r.Compute(float64(len(data)) / 8 * 0.25)
	op(cur, data)
	w.access(target, offset, cur, true) // put
	w.accTmp = cur
}

// Flush blocks until all outstanding RMA operations issued by this rank on
// the window have completed remotely.
func (w *Win) Flush() {
	w.r.profEnter()
	defer w.r.profExit("Win_flush")
	w.quiesce()
}

// Fence completes all outstanding operations and synchronizes all ranks
// (MPI_Win_fence active-target epoch boundary).
func (w *Win) Fence() {
	w.r.profEnter()
	defer w.r.profExit("Win_fence")
	w.quiesce()
	w.r.barrier(w.r.group())
}
