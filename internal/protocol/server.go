package protocol

import (
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
