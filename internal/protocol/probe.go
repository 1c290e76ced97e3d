package protocol

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// ProbeBudget bounds the event count of a single visibility probe.
const ProbeBudget = 4096

// Probe clones the current configuration, runs a fresh read-only
// transaction over objs at the given reader, and returns its result.
//
// The schedule visits servers in the given order: the reader's requests
// are delivered and served order[0] first, then order[1], etc., and the
// responses are delivered in the same order — exactly the fine-grained
// control Constructions 1 and 2 of the paper need (σ_old delivers to p_i
// first; σ_new to p_{1-i} first).
//
// When frozen is true, no message other than the reader's own traffic is
// delivered and no process other than the reader and the servers steps: a
// legal finite prefix in which all other in-transit messages are simply
// delayed. When frozen is false and the transaction is still incomplete
// after the frozen phase, the probe "thaws": servers may run and any
// message addressed to a server or the reader may be delivered (but no
// other client ever steps) — this lets blocking protocols complete so
// their eventual visibility can be observed.
//
// Probe never mutates the original configuration; it returns nil if the
// transaction does not complete within the budget.
func (d *Deployment) Probe(reader sim.ProcessID, objs []string, order []sim.ProcessID, frozen bool) *model.Result {
	k := d.Kernel.Snapshot()
	dd := d.At(k)
	cl := dd.Client(reader)
	tid := dd.Invoke(reader, model.NewReadOnly(model.TxnID{}, objs...))

	budget := ProbeBudget
	spend := func(n int) bool { budget -= n; return budget > 0 }

	// Frozen phase: reader and per-order server service only. Servers
	// downed by a nemesis fault are skipped — the probe simply observes
	// whatever the surviving servers answer (or blocks, if the protocol
	// needs the crashed participant).
	for rounds := 0; rounds < 8 && cl.Busy(); rounds++ {
		progress := false
		if len(k.Inbox(reader)) > 0 || k.Process(reader).Ready() {
			k.StepProcess(reader)
			progress = true
		}
		for _, s := range order {
			if k.Down(s) {
				continue
			}
			for _, m := range k.InTransitOn(sim.Link{From: reader, To: s}) {
				k.Deliver(m.ID)
				progress = true
			}
			if len(k.Inbox(s)) > 0 {
				k.StepProcess(s)
				progress = true
			}
		}
		for _, s := range order {
			for _, m := range k.InTransitOn(sim.Link{From: s, To: reader}) {
				k.Deliver(m.ID)
				progress = true
			}
		}
		if len(k.Inbox(reader)) > 0 {
			k.StepProcess(reader)
			progress = true
		}
		if !progress || !spend(4) {
			break
		}
	}

	if cl.Busy() && !frozen {
		// Thaw: servers plus reader act; deliveries of anything already
		// sent to them are allowed; other clients stay frozen.
		allowed := append(dd.Place.Servers(), reader)
		r := sim.Restrict(allowed...)
		var others []sim.ProcessID
		for _, id := range k.Processes() {
			if !r.AllowsProc(id) {
				others = append(others, id)
			}
		}
		r.AllowDeliveriesFrom(others...)
		sim.Run(k, &sim.RoundRobin{Only: r}, func(*sim.Kernel) bool { return !cl.Busy() }, budget)
	}

	if cl.Busy() {
		return nil
	}
	return cl.Finished(tid)
}

// ProbeOrders returns the battery of server visit orders used by the
// visibility check: each rotation of the server list and the full
// reversal. For two servers this is both permutations.
func (d *Deployment) ProbeOrders(objs []string) [][]sim.ProcessID {
	base := d.Place.ServersFor(objs)
	if len(base) == 0 {
		base = d.Place.Servers()
	}
	var orders [][]sim.ProcessID
	n := len(base)
	for r := 0; r < n; r++ {
		rot := make([]sim.ProcessID, n)
		for i := 0; i < n; i++ {
			rot[i] = base[(i+r)%n]
		}
		orders = append(orders, rot)
	}
	if n > 1 {
		rev := make([]sim.ProcessID, n)
		for i := 0; i < n; i++ {
			rev[i] = base[n-1-i]
		}
		orders = append(orders, rev)
	}
	return orders
}

// Visibility is the outcome of a VisibleAll check.
type Visibility struct {
	// Visible is true when every probe completed and returned the
	// expected value for every object.
	Visible bool
	// Incomplete is true when some probe did not complete (blocking
	// protocols under frozen probing).
	Incomplete bool
	// Counterexample is a probe result that returned something other
	// than the expected values (nil when none did).
	Counterexample *model.Result
}

// VisibleAll implements Definition 2 (value visibility), approximated over
// the probe battery: the values in want are visible iff every probe
// (every server order) returns exactly them. A probe returning anything
// else is a scheduling witness that the value is not (yet) visible.
// Probes run on clones; the configuration is unchanged.
func (d *Deployment) VisibleAll(reader sim.ProcessID, want map[string]model.Value, frozen bool) Visibility {
	objs := make([]string, 0, len(want))
	for o := range want {
		objs = append(objs, o)
	}
	txnObjs := model.NewReadOnly(model.TxnID{}, objs...).ReadSet // sorted, deduped
	out := Visibility{Visible: true}
	for _, order := range d.ProbeOrders(txnObjs) {
		res := d.Probe(reader, txnObjs, order, frozen)
		if res == nil || !res.OK() {
			out.Visible = false
			out.Incomplete = true
			continue
		}
		for _, obj := range txnObjs {
			if res.Value(obj) != want[obj] {
				out.Visible = false
				out.Counterexample = res
			}
		}
	}
	return out
}
