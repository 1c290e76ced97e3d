package protocol

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/store"
)

// ServerCore is the common server machinery embedded by every protocol
// server, the counterpart of the client Core: its identity, the
// placement, the version store of the objects it hosts and a send buffer.
// It supplies ID, a Ready that is always false (a server steps only on
// messages; servers whose parked reads wait on time rather than on a
// message, gentlerain and spanner, override it) and ShardStore
// (StoreCarrier), so replacement catch-up reaches every model's store.
// Protocol servers implement Step and Clone around it.
type ServerCore struct {
	id  sim.ProcessID
	pl  *Placement
	st  *store.Store
	out []sim.Outbound // this step's sends, until Sent
}

// NewServerCore initializes the embedded server core with an empty store
// of the objects pl places on id.
func NewServerCore(id sim.ProcessID, pl *Placement) ServerCore {
	return ServerCore{id: id, pl: pl, st: store.New(pl.HostedBy(id)...)}
}

// ID implements sim.Process.
func (s *ServerCore) ID() sim.ProcessID { return s.id }

// Ready implements sim.Process: a server only reacts to messages.
func (s *ServerCore) Ready() bool { return false }

// Placement returns the deployment placement.
func (s *ServerCore) Placement() *Placement { return s.pl }

// ShardStore implements StoreCarrier: the server's durable version store.
func (s *ServerCore) ShardStore() *store.Store { return s.st }

// Send queues a message in the send buffer.
func (s *ServerCore) Send(to sim.ProcessID, p sim.Payload) {
	s.out = append(s.out, sim.Outbound{To: to, Payload: p})
}

// Sent hands out the send buffer and empties it for the next step: a
// server's Step ends with return s.Sent() (see Core.Sent).
func (s *ServerCore) Sent() []sim.Outbound { return takeSent(&s.out) }

// CloneServerCore copies the core with a cloned store and its own, empty
// send buffer (for Process.Clone implementations).
func (s *ServerCore) CloneServerCore() ServerCore {
	return ServerCore{id: s.id, pl: s.pl, st: s.st.Clone()}
}

// A ReadPointer bounds its model's reads: ReadPoint(now), now being the
// earliest instant the process can still step, returns the oldest point
// of the reads it has in flight or can still send or, for a server, lead
// to; false bounds nothing.
type ReadPointer interface {
	ReadPoint(now sim.Time) (store.Horizon, bool)
}

// NewLatestServerCore is NewServerCore for a model whose reads all return
// the newest visible version: its store keeps no older one unless pl
// replicates (Deployment.Prune).
func NewLatestServerCore(id sim.ProcessID, pl *Placement) ServerCore {
	s := NewServerCore(id, pl)
	s.st.Horizon.Latest = !pl.replicated
	return s
}

// Prune sets every store's horizon to the meet of the points its
// processes' ReadPoint state at floor, unless the placement replicates: a
// replacement's catch-up compares its writers with its peers', which
// needs whole chains. It runs between engine rounds, at most once per 10
// ms of virtual time: a pass is O(servers + clients) and changes no
// readiness and nothing a read returns.
func (d *Deployment) Prune(floor sim.Time) {
	if floor < d.pruneAt || d.Place.replicated {
		return
	}
	d.pruneAt = floor + 10_000
	var h store.Horizon
	some := false
	for _, pid := range slices.Concat(d.Place.servers, d.Clients, d.Readers) {
		r, ok := d.Kernel.Process(pid).(ReadPointer)
		if !ok {
			continue
		}
		switch p, ok := r.ReadPoint(floor); {
		case ok && !some:
			h, h.Vec, some = p, slices.Clone(p.Vec), true
		case ok:
			if p.At.Before(h.At) {
				h.At = p.At
			}
			for i, x := range p.Vec {
				h.Vec[i] = min(h.Vec[i], x)
			}
		}
	}
	if !some {
		return
	}
	for _, sid := range d.Place.servers {
		d.Kernel.Process(sid).(StoreCarrier).ShardStore().Horizon = h
	}
}
