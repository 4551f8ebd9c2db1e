package mpi

// Variable-count collectives (the MPI "v" family) and reduce-scatter.
// These use linear root-based algorithms — the standard choice when counts
// are irregular and no balanced tree applies.

// Gatherv collects variably-sized contributions into root. counts[i] is the
// byte count rank i contributes; out on root must hold their sum, laid out
// in rank order. Every rank must pass the same counts.
func (r *Rank) Gatherv(root int, mine []byte, counts []int, out []byte) {
	r.profEnter()
	defer r.profExit("Gatherv")
	if len(counts) != r.size {
		r.p.Fatalf("Gatherv: %d counts for %d ranks", len(counts), r.size)
	}
	if len(mine) != counts[r.rank] {
		r.p.Fatalf("Gatherv: rank %d contributes %d bytes, counts say %d", r.rank, len(mine), counts[r.rank])
	}
	tag := r.nextCollTag()
	if r.rank != root {
		if counts[r.rank] > 0 {
			r.wait(r.csend(root, tag, mine))
		}
		return
	}
	offs := make([]int, r.size+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	if len(out) != offs[r.size] {
		r.p.Fatalf("Gatherv: out is %d bytes, want %d", len(out), offs[r.size])
	}
	copy(out[offs[root]:], mine)
	var reqs []*Request
	for src := 0; src < r.size; src++ {
		if src == root || counts[src] == 0 {
			continue
		}
		reqs = append(reqs, r.crecv(src, tag, out[offs[src]:offs[src+1]]))
	}
	for _, rq := range reqs {
		r.wait(rq)
	}
}

// Scatterv distributes variably-sized chunks from root; counts[i] bytes go
// to rank i. mine must be counts[rank] bytes.
func (r *Rank) Scatterv(root int, all []byte, counts []int, mine []byte) {
	r.profEnter()
	defer r.profExit("Scatterv")
	if len(counts) != r.size {
		r.p.Fatalf("Scatterv: %d counts for %d ranks", len(counts), r.size)
	}
	if len(mine) != counts[r.rank] {
		r.p.Fatalf("Scatterv: rank %d buffer %d bytes, counts say %d", r.rank, len(mine), counts[r.rank])
	}
	tag := r.nextCollTag()
	if r.rank != root {
		if counts[r.rank] > 0 {
			r.wait(r.crecv(root, tag, mine))
		}
		return
	}
	offs := make([]int, r.size+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	if len(all) != offs[r.size] {
		r.p.Fatalf("Scatterv: all is %d bytes, want %d", len(all), offs[r.size])
	}
	var reqs []*Request
	for dst := 0; dst < r.size; dst++ {
		if dst == root || counts[dst] == 0 {
			continue
		}
		reqs = append(reqs, r.csend(dst, tag, all[offs[dst]:offs[dst+1]]))
	}
	copy(mine, all[offs[root]:offs[root+1]])
	for _, rq := range reqs {
		r.wait(rq)
	}
}

// Allgatherv concatenates variably-sized contributions on every rank
// (ring algorithm over irregular blocks).
func (r *Rank) Allgatherv(mine []byte, counts []int, out []byte) {
	r.profEnter()
	defer r.profExit("Allgatherv")
	if len(counts) != r.size {
		r.p.Fatalf("Allgatherv: %d counts for %d ranks", len(counts), r.size)
	}
	if len(mine) != counts[r.rank] {
		r.p.Fatalf("Allgatherv: rank %d contributes %d bytes, counts say %d", r.rank, len(mine), counts[r.rank])
	}
	offs := make([]int, r.size+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	if len(out) != offs[r.size] {
		r.p.Fatalf("Allgatherv: out is %d bytes, want %d", len(out), offs[r.size])
	}
	copy(out[offs[r.rank]:], mine)
	if r.size == 1 {
		return
	}
	tag := r.nextCollTag()
	right := (r.rank + 1) % r.size
	left := (r.rank - 1 + r.size) % r.size
	for step := 0; step < r.size-1; step++ {
		sendBlock := (r.rank - step + r.size) % r.size
		recvBlock := (r.rank - step - 1 + r.size) % r.size
		rq := r.crecv(left, tag, out[offs[recvBlock]:offs[recvBlock+1]])
		r.wait(r.csend(right, tag, out[offs[sendBlock]:offs[sendBlock+1]]))
		r.wait(rq)
	}
}

// ReduceScatterBlock reduces equal-sized blocks across all ranks and leaves
// block i on rank i (MPI_Reduce_scatter_block): in holds size*blockLen
// bytes, out receives this rank's reduced block. Implemented as pairwise
// exchange of partial blocks (each rank reduces its own block directly).
func (r *Rank) ReduceScatterBlock(in []byte, out []byte, op ReduceOp) {
	r.profEnter()
	defer r.profExit("Reduce_scatter")
	blockLen := len(out)
	if len(in) != blockLen*r.size {
		r.p.Fatalf("ReduceScatterBlock: in is %d bytes, want %d", len(in), blockLen*r.size)
	}
	tag := r.nextCollTag()
	copy(out, in[r.rank*blockLen:(r.rank+1)*blockLen])
	if r.size == 1 {
		return
	}
	tmp := r.AllocMem(blockLen)
	defer r.FreeMem(tmp)
	for step := 1; step < r.size; step++ {
		sendTo := (r.rank + step) % r.size
		recvFrom := (r.rank - step + r.size) % r.size
		rq := r.crecv(recvFrom, tag, tmp)
		r.wait(r.csend(sendTo, tag, in[sendTo*blockLen:(sendTo+1)*blockLen]))
		r.wait(rq)
		r.chargeReduce(blockLen)
		op(out, tmp)
	}
}
