package mpi

import (
	"cmpi/internal/cluster"
	"cmpi/internal/ib"
	"cmpi/internal/trace"
)

// installTracer wires the world's recorder to the engine's deterministic
// emitter and hooks the substrates that emit fault events. Called once from
// Run when Options.Record is set.
func (w *World) installTracer() {
	rec := w.Opts.Record
	rec.Begin(w.Size(), w.Opts.Params.ShmCellPayload)
	w.Eng.SetEmitter(func(payload any) {
		if r, ok := payload.(trace.Record); ok {
			rec.Add(r)
		}
	})
	// Substrate fault events (retransmissions, QP breaks, attach vetoes) only
	// fire in fault-injected worlds, from engine callbacks or rank code
	// without a Proc at hand: their records go to the recorder directly, in
	// the same dispatch order as the ranks' own.
	w.fabric.SetTrace(func(ev ib.TraceEvent) {
		op := trace.OpRetransmit
		if ev.Kind == ib.TraceQPBreak {
			op = trace.OpQPBreak
		}
		rec.Add(trace.Record{
			T: ev.T, Op: op, Path: trace.PathNone,
			Rank: -1, Peer: ev.Host, Aux: uint64(ev.Retries),
		})
	})
	w.shm.SetAttachTrace(func(env *cluster.Container, name string) {
		rec.Add(trace.Record{
			T: w.Eng.Now(), Op: trace.OpAttachFail, Path: trace.PathNone,
			Rank: -1, Peer: env.Host.Index,
		})
	})
}
