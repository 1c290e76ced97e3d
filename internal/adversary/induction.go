package adversary

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// segment is one recorded solo run α'_k-candidate: the events executed
// from C_{k-1} while only c_w and the servers act.
type segment struct {
	events []sim.Event
	// visIdx is the index (inclusive) after which both new values are
	// visible, or -1.
	visIdx int
	// qualifying lists indices of events containing a message ms_k: a
	// server→server send, or a server→c_w send that c_w later relays.
	qualifying []int
	quiesced   bool
}

// recordSolo runs Tw solo (c_w + servers) on a clone of cur, probing
// visibility after every event, and classifies the qualifying events.
func (a *Attack) recordSolo(cur *protocol.Deployment, cw sim.ProcessID, want map[string]model.Value, reader sim.ProcessID) *segment {
	k := cur.Kernel.Snapshot()
	d := cur.At(k)
	restr := sim.Restrict(d.Participants(cw)...)
	sched := &sim.RoundRobin{Only: restr}
	from := k.Trace().Len()
	seg := &segment{visIdx: -1}

	for i := 0; i < a.SegmentCap; i++ {
		act, more := sched.Next(k)
		if !more {
			seg.quiesced = true
			break
		}
		sim.Apply(k, act)
		if seg.visIdx < 0 {
			ev := k.Trace().Events[k.Trace().Len()-1]
			if ev.Kind == sim.EvStep || ev.Kind == sim.EvDeliver {
				vis := d.VisibleAll(reader, want)
				if vis.Visible {
					seg.visIdx = k.Trace().Len() - from - 1
					break
				}
			}
		}
	}
	seg.events = append([]sim.Event(nil), k.Trace().Since(from)...)
	seg.classify(cw, serverSet(d))
	return seg
}

func serverSet(d *protocol.Deployment) map[sim.ProcessID]bool {
	set := make(map[sim.ProcessID]bool)
	for _, s := range d.Place.Servers() {
		set[s] = true
	}
	return set
}

// classify finds the qualifying events (the candidates for ms_k): direct
// server→server sends, and server→c_w sends that c_w relays — c_w sends a
// message to a server in a step that consumed (or followed consumption of)
// server messages sent in this segment.
func (s *segment) classify(cw sim.ProcessID, servers map[sim.ProcessID]bool) {
	// Track server→cw send events not yet justified as relays.
	type sendRec struct {
		idx      int
		consumed bool
	}
	var srvSends []sendRec
	consumedRefs := make(map[sim.MsgRef]int) // ref -> send event index

	for i, ev := range s.events {
		if ev.Kind != sim.EvStep {
			continue
		}
		if servers[ev.Proc] {
			for _, ref := range ev.Sent {
				if servers[ref.Link.To] {
					s.qualifying = append(s.qualifying, i)
				} else if ref.Link.To == cw {
					srvSends = append(srvSends, sendRec{idx: i})
					consumedRefs[ref] = i
				}
			}
			continue
		}
		if ev.Proc != cw {
			continue
		}
		// Mark consumed server messages from this segment.
		for _, ref := range ev.Consumed {
			if sentIdx, sentHere := consumedRefs[ref]; sentHere && servers[ref.Link.From] {
				for j := range srvSends {
					if srvSends[j].idx == sentIdx {
						srvSends[j].consumed = true
					}
				}
			}
		}
		// A relay: cw sends to a server having consumed (now or earlier
		// in this segment) a server message sent in this segment.
		sendsToServer := false
		for _, ref := range ev.Sent {
			if servers[ref.Link.To] {
				sendsToServer = true
			}
		}
		if sendsToServer {
			for j := range srvSends {
				if srvSends[j].consumed {
					s.qualifying = append(s.qualifying, srvSends[j].idx)
					srvSends[j].consumed = false // assign each send once
				}
			}
		}
	}
	// Qualifying indices may be discovered out of order (relays confirm
	// earlier sends); sort ascending.
	for i := 1; i < len(s.qualifying); i++ {
		for j := i; j > 0 && s.qualifying[j] < s.qualifying[j-1]; j-- {
			s.qualifying[j], s.qualifying[j-1] = s.qualifying[j-1], s.qualifying[j]
		}
	}
}

// firstQualifying returns the earliest qualifying index that happens
// strictly before visibility (or any, if never visible), or -1.
func (s *segment) firstQualifying() int {
	for _, q := range s.qualifying {
		if s.visIdx < 0 || q < s.visIdx {
			return q
		}
	}
	return -1
}

// describe renders the event at idx for reports.
func describeEvent(ev sim.Event) string {
	if len(ev.Sent) > 0 {
		return fmt.Sprintf("step %s sending %v", ev.Proc, ev.Sent)
	}
	return ev.String()
}

// induction runs the Lemma 3 loop: construct α_1 ⊂ α_2 ⊂ ... by cutting
// the solo execution of Tw at the messages ms_k, checking claim 2 (values
// not visible) at every C_k, and constructing the contradiction execution
// (γ for claim 1, δ for claim 2) the moment a claim fails.
func (a *Attack) induction(d *protocol.Deployment, cw sim.ProcessID) (*Witness, []StepReport, error) {
	objs := d.Place.Objects()
	want := newValues(objs)
	old := oldValues(d)

	// Invoke Tw = (w(X0)x0, w(X1)x1, ...) at c_w from C_0; it stays
	// active for the entire induction (the paper's troublesome α).
	var writes []model.Write
	for _, obj := range objs {
		writes = append(writes, model.Write{Object: obj, Value: want[obj]})
	}
	d.Invoke(cw, model.NewWriteOnly(model.TxnID{}, writes...))

	reports := []StepReport{}
	maxK := a.MaxK
	if maxK <= 0 {
		maxK = 8
	}
	servers := d.Place.Servers()

	for k := 1; k <= maxK; k++ {
		reader := d.Readers[(k-1)%len(d.Readers)]
		probeReader := d.Readers[(k)%len(d.Readers)]
		seg := a.recordSolo(d, cw, want, probeReader)

		// The paper's alternation (Theorem 1): p_{(k-1)%2} answers new and
		// p_{k%2} is filtered. In the general case (Theorem 2, m servers,
		// partial replication) a single server p answers new and every
		// other server is filtered out of β_new — the same construction.
		newSrv := servers[(k-1)%len(servers)]
		var oldFirst []sim.ProcessID
		for _, s := range servers {
			if s != newSrv {
				oldFirst = append(oldFirst, s)
			}
		}

		q := seg.firstQualifying()
		if q < 0 {
			if seg.visIdx < 0 {
				// Tw can make no further progress and the values never
				// become visible: minimal progress is violated outright.
				return nil, reports, nil
			}
			// Claim 1 fails: visibility was reached with no server
			// needing to send ms_k. Build γ = σ_old · β_new · σ_new and
			// exhibit the mixed read.
			beta := seg.events[:seg.visIdx+1]
			res, err := a.buildContradiction(d, beta, oldFirst, newSrv, reader)
			if err != nil {
				return nil, reports, fmt.Errorf("adversary: γ construction at k=%d: %w", k, err)
			}
			if w := mixedWitness("gamma", k, reader, res, old, want, objs); w != nil {
				return w, reports, nil
			}
			return nil, reports, fmt.Errorf("adversary: γ at k=%d completed without a mixed read: %v", k, res)
		}

		// Cut α'_k at ms_k and advance the main configuration to C_k.
		alphaK := seg.events[:q+1]
		prev := d.At(d.Kernel.Snapshot()) // C_{k-1}, kept for δ
		replay := &sim.Scripted{Steps: sim.ScriptOf(alphaK)}
		sim.Run(d.Kernel, replay, nil, len(alphaK)+8)
		if replay.Err != nil {
			return nil, reports, fmt.Errorf("adversary: α'_%d replay diverged: %w", k, replay.Err)
		}

		// Claim 2: at C_k the new values must not be visible.
		visible := false
		for _, obj := range objs {
			if visibleOne(d, probeReader, obj, want[obj]) {
				visible = true
				break
			}
		}
		reports = append(reports, StepReport{
			K:                k,
			Msk:              describeEvent(seg.events[q]),
			Events:           len(alphaK),
			NewValuesVisible: visible,
		})
		if visible {
			// Claim 2 fails: build δ with ρ = α'_k and exhibit the mix.
			res, err := a.buildContradiction(prev, alphaK, oldFirst, newSrv, reader)
			if err != nil {
				return nil, reports, fmt.Errorf("adversary: δ construction at k=%d: %w", k, err)
			}
			if w := mixedWitness("delta", k, reader, res, old, want, objs); w != nil {
				return w, reports, nil
			}
			return nil, reports, fmt.Errorf("adversary: δ at k=%d completed without a mixed read: %v", k, res)
		}
	}
	return nil, reports, nil
}

// visibleOne reports whether every frozen probe returns val for obj.
func visibleOne(d *protocol.Deployment, reader sim.ProcessID, obj string, val model.Value) bool {
	for _, order := range d.ProbeOrders([]string{obj}) {
		res := d.Probe(reader, []string{obj}, order)
		if res == nil || !res.OK() || res.Value(obj) != val {
			return false
		}
	}
	return true
}

// mixedWitness checks a contradiction execution's result for the
// Lemma-1-forbidden mix of initial and new values.
func mixedWitness(kind string, k int, reader sim.ProcessID, res *model.Result,
	old, want map[string]model.Value, objs []string) *Witness {
	if res == nil || !res.OK() {
		return nil
	}
	sawOld, sawNew := false, false
	for _, obj := range objs {
		switch res.Value(obj) {
		case old[obj]:
			sawOld = true
		case want[obj]:
			sawNew = true
		}
	}
	if !sawOld || !sawNew {
		return nil
	}
	returned := make(map[string]model.Value, len(objs))
	for _, obj := range objs {
		returned[obj] = res.Value(obj)
	}
	return &Witness{
		Kind: kind, K: k, Reader: reader,
		Returned: returned, OldValues: old, NewValues: want,
	}
}
