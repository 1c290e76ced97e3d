// Package protocol is the zoo's service-provider interface. An entry writes
// two sim.Processes (Step/Clone; clients embed Core, whose Send opens and
// counts each round, which supplies Ready and refuses the shapes Claims
// rule out; servers embed ServerCore, which holds the identity, placement
// and store; both cores buffer Send and a Step returns their Sent),
// payloads with Kind, a transaction's embedding the Msg header (values:
// immutable once sent) and Claims; a server keeps its per-version
// metadata on store.Version.Meta. Placement, fan-out
// (ReadShares/WriteShares), the read round's messages (Read, ReadReply),
// the two-phase commit's, deployments, probes and replacement catch-up
// live here.
package protocol

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// Claims records the fast-read-only-transaction sub-properties a protocol
// claims (Definition 4) plus its claimed consistency level. The spec
// package measures the actual properties from traces; Table 1 compares the
// two.
type Claims struct {
	// OneRound: read-only transactions complete in one round trip.
	OneRound bool
	// OneValue: each server→client message carries at most one written
	// value per object read.
	OneValue bool
	// NonBlocking: servers answer read requests in the computation step
	// that receives them.
	NonBlocking bool
	// MultiWriteTxn: transactions may write more than one object.
	MultiWriteTxn bool
	// Consistency is the claimed level: "causal", "read-atomic",
	// "serializable", "strict-serializable" or "none".
	Consistency string
}

// FastROT reports whether the claims amount to fast read-only transactions
// per Definition 4.
func (c Claims) FastROT() bool { return c.OneRound && c.OneValue && c.NonBlocking }

// TxnPayload is implemented by payloads belonging to a transaction; the
// spec package uses it to attribute messages to transactions. What a
// message is for, its link says: client→server is a request and
// server→client a response (Definition 4).
type TxnPayload interface {
	sim.Payload
	Txn() model.TxnID
}

// Msg is the header every payload of a transaction embeds: it carries the
// ID and gives them all TxnPayload's Txn. A server answers with Msg: p.Msg.
type Msg struct{ TID model.TxnID }

func (m Msg) Txn() model.TxnID { return m.TID }

// ValueCarrier is implemented by responses carrying written values; the
// spec package uses it to measure the one-value property. Metadata (e.g.
// timestamps) is not a value — only data written by some transaction into
// some object counts (Definition 4, property 2 and its footnote). A ⊥
// placeholder may be listed: spec skips it, as it is no written value.
type ValueCarrier interface {
	CarriedValues() []model.ValueRef
}

// Client is a protocol client process. Clients are sequential (the paper's
// model): one transaction is actively executed at a time, and further
// invocations queue behind it in submission order, forming a per-client
// pipeline the load driver keeps saturated.
type Client interface {
	sim.Process
	// Invoke submits a transaction. If the transaction's ID is zero the
	// client assigns the next per-client sequence number. If a
	// transaction is already active the new one queues behind it. The
	// (possibly assigned) ID is returned.
	Invoke(t *model.Txn) model.TxnID
	// Busy reports whether a transaction is actively executing.
	Busy() bool
	// Outstanding reports the number of invoked-but-unfinished
	// transactions (the active one plus the queue).
	Outstanding() int
	// Finished returns the completed result of transaction id while
	// nobody has taken it (trace-mode flows never drain, so they look
	// their results up here); nil otherwise.
	Finished(id model.TxnID) *model.Result
	// TakeFinished drains the results completed since the previous call
	// by appending them to dst, in completion order (per-client program
	// order), and returns dst. A taken result belongs to the taker; the
	// client forgets it.
	TakeFinished(dst []*model.Result) []*model.Result
}

// Protocol builds the processes of one modeled system.
type Protocol interface {
	// Name is a short identifier ("copssnow", "wren", ...).
	Name() string
	// Claims returns the claimed properties (the paper-table row).
	Claims() Claims
	// NewServer creates the server process with the given identity.
	NewServer(id sim.ProcessID, pl *Placement) sim.Process
	// NewClient creates a client process.
	NewClient(id sim.ProcessID, pl *Placement) Client
}
