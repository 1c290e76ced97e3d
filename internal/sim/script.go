package sim

// ScriptOf converts a slice of trace events into a replayable script. Only
// step and delivery events are scheduler decisions; annotations are skipped.
func ScriptOf(events []Event) []ScriptStep {
	var out []ScriptStep
	for _, ev := range events {
		switch ev.Kind {
		case EvStep:
			out = append(out, ScriptStep{Kind: ActStep, Proc: ev.Proc})
		case EvDeliver:
			for _, r := range ev.Msgs {
				out = append(out, ScriptStep{Kind: ActDeliver, Link: r.Link, Seq: r.LinkSeq})
			}
		}
	}
	return out
}

// FilterProcessSteps returns a copy of script with every step of pid
// removed, together with every delivery of a message *sent by* pid after
// the filtering point. This is the paper's construction of β_p from β'_p:
// "the subsequence in which all steps taken by p have been removed".
// Messages pid sent before the script began (already in transit) are kept:
// their deliveries do not depend on pid taking steps.
//
// Deciding which deliveries to drop requires knowing which link sequence
// numbers pid's in-script steps would have produced; sentBefore gives, for
// each outgoing link of pid, the last sequence number assigned before the
// script's first event. Deliveries on pid's outgoing links with sequence
// numbers greater than sentBefore are dropped.
func FilterProcessSteps(script []ScriptStep, pid ProcessID, sentBefore map[Link]int64) []ScriptStep {
	var out []ScriptStep
	for _, st := range script {
		if st.Kind == ActStep && st.Proc == pid {
			continue
		}
		if st.Kind == ActDeliver && st.Link.From == pid && st.Seq > sentBefore[st.Link] {
			continue
		}
		out = append(out, st)
	}
	return out
}

// StepsBy returns only the steps taken by pid and the deliveries *to* pid
// needed to feed those steps. This builds the paper's β_s: "the
// subsequence of β'_s containing only steps by p".
func StepsBy(script []ScriptStep, pid ProcessID) []ScriptStep {
	var out []ScriptStep
	for _, st := range script {
		if st.Kind == ActStep && st.Proc == pid {
			out = append(out, st)
			continue
		}
		if st.Kind == ActDeliver && st.Link.To == pid {
			out = append(out, st)
		}
	}
	return out
}

// LinkSeqHighWater returns, for every link, the highest sequence number
// among messages already sent (in transit or delivered) as implied by the
// kernel's internal counters. The adversary records this before capturing
// a script so FilterProcessSteps can distinguish pre-existing messages.
func (k *Kernel) LinkSeqHighWater() map[Link]int64 {
	out := make(map[Link]int64)
	for from, row := range k.linkSeq {
		for to, seq := range row {
			if seq > 0 {
				out[Link{From: k.ids[from], To: k.ids[to]}] = seq
			}
		}
	}
	return out
}
