package adversary

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// ErrEscapedRounds reports that the reader did not complete its read-only
// transaction within the one-round schedule of the contradiction execution
// — i.e. the protocol escaped the trap by spending additional rounds
// (repair/retry rounds), which is exactly the paper's point: it sacrifices
// the one-round property instead of consistency.
var ErrEscapedRounds = errors.New("adversary: reader took additional rounds in the contradiction execution")

// buildContradiction assembles the paper's execution γ (or δ — the code is
// identical, only the β/ρ script differs) on a snapshot of base:
//
//	σ_old  — the reader's fast ROT starts; the servers in oldFirst
//	         receive its requests and answer (necessarily with values not
//	         including Tw's writes, Observation 1);
//	β_new  — the recorded solo execution β (from which the values become
//	         visible) is replayed with every step of the oldFirst servers
//	         filtered out (β_p · β_s, Figure 3a) — legal by the
//	         indistinguishability argument, since those servers sent no
//	         ms_k;
//	σ_new  — the remaining server now receives the reader's request in a
//	         configuration where Tw's value is visible and answers with
//	         the new value (Observation 2);
//
// and finally the responses are delivered and the reader completes. For a
// protocol with fast ROTs + multi-object writes the result mixes initial
// and new values — the Lemma 1 contradiction.
func (a *Attack) buildContradiction(base *protocol.Deployment, beta []sim.Event,
	oldFirst []sim.ProcessID, newSrv sim.ProcessID, reader sim.ProcessID) (*model.Result, error) {

	k := base.Kernel.Snapshot()
	d := base.At(k)
	cw := d.Clients[0]
	objs := d.Place.Objects()
	highwater := base.Kernel.LinkSeqHighWater()
	traceStart := k.Trace().Len()
	defer func() { a.LastContradictionTrace = append([]sim.Event(nil), k.Trace().Since(traceStart)...) }()

	// --- σ_old ---
	tid := d.Invoke(reader, model.NewReadOnly(model.TxnID{}, objs...))
	k.StepProcess(reader) // the one-round ROT sends all its requests now
	for _, q := range oldFirst {
		for _, m := range k.InTransitOn(sim.Link{From: reader, To: q}) {
			k.Deliver(m.ID)
		}
		if len(k.Inbox(q)) > 0 {
			k.StepProcess(q)
		}
	}
	k.Annotate(sim.EvMark, reader, "σ_old applied")

	// --- β_new = β_p · β_s ---
	script := sim.ScriptOf(beta)
	// β'_p: the shortest prefix of β containing every message c_w sends
	// to newSrv. Locate the last such send in the script.
	split := -1
	pos := 0
	for _, ev := range beta {
		switch ev.Kind {
		case sim.EvStep:
			if ev.Proc == cw {
				for _, ref := range ev.Sent {
					if ref.Link.To == newSrv {
						split = pos
					}
				}
			}
			pos++
		case sim.EvDeliver:
			pos += len(ev.Msgs)
		}
	}
	prefix := script
	var suffix []sim.ScriptStep
	if split >= 0 {
		prefix = script[:split+1]
		suffix = script[split+1:]
	} else {
		prefix = nil
		suffix = script
	}
	// β_p: remove the oldFirst servers' steps (and the deliveries of the
	// messages those steps would have sent).
	bp := prefix
	for _, q := range oldFirst {
		bp = sim.FilterProcessSteps(bp, q, highwater)
	}
	// β_s: only newSrv's steps and the deliveries feeding them, again
	// excluding messages the filtered servers never sent.
	bs := sim.StepsBy(suffix, newSrv, true)
	for _, q := range oldFirst {
		bs = sim.FilterProcessSteps(bs, q, highwater)
	}
	replay := &sim.Scripted{Steps: append(append([]sim.ScriptStep(nil), bp...), bs...)}
	sim.Run(k, replay, nil, len(replay.Steps)+8)
	if replay.Err != nil {
		return nil, fmt.Errorf("β_new replay diverged: %w", replay.Err)
	}
	k.Annotate(sim.EvMark, cw, "β_new applied")

	// --- σ_new ---
	for _, m := range k.InTransitOn(sim.Link{From: reader, To: newSrv}) {
		k.Deliver(m.ID)
	}
	if len(k.Inbox(newSrv)) > 0 {
		k.StepProcess(newSrv)
	}
	k.Annotate(sim.EvMark, newSrv, "σ_new applied")

	// --- deliver responses, complete T_r ---
	cl := d.Client(reader)
	for i := 0; i < 16 && cl.Busy(); i++ {
		delivered := false
		for _, srv := range d.Place.Servers() {
			for _, m := range k.InTransitOn(sim.Link{From: srv, To: reader}) {
				k.Deliver(m.ID)
				delivered = true
			}
		}
		if len(k.Inbox(reader)) > 0 {
			k.StepProcess(reader)
			delivered = true
		}
		if !delivered {
			break
		}
	}
	if cl.Busy() {
		return nil, ErrEscapedRounds
	}
	return cl.Finished(tid), nil
}
