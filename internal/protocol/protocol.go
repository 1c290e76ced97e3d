// Package protocol is the zoo's service-provider interface. An entry writes
// two sim.Processes (Step/Ready/Clone; clients embed Core), payloads with
// Kind/Txn/PayloadRole (values: immutable once sent) and Claims; placement,
// fan-out (ReadShares/WriteShares), deployments and probes live here.
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

// Role classifies a payload for trace analysis.
type Role uint8

// Payload roles.
const (
	RoleInternal  Role = iota // server↔server or bookkeeping traffic
	RoleReadReq               // client→server read(-round) request
	RoleReadResp              // server→client read response
	RoleWriteReq              // client→server write/prepare/commit request
	RoleWriteResp             // server→client write ack
)

func (r Role) String() string {
	switch r {
	case RoleReadReq:
		return "read-req"
	case RoleReadResp:
		return "read-resp"
	case RoleWriteReq:
		return "write-req"
	case RoleWriteResp:
		return "write-resp"
	default:
		return "internal"
	}
}

// TxnPayload is implemented by payloads belonging to a transaction; the
// spec package uses it to attribute messages to transactions.
type TxnPayload interface {
	sim.Payload
	Txn() model.TxnID
	PayloadRole() Role
}

// ValueCarrier is implemented by payloads carrying written values; the
// spec package uses it to measure the one-value property. Metadata (e.g.
// timestamps) is not a value — only data written by some transaction into
// some object counts (Definition 4, property 2 and its footnote).
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
	// TakeFinished drains the results completed since the previous call,
	// in completion order (per-client program order). A taken result
	// belongs to the taker; the client forgets it.
	TakeFinished() []*model.Result
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
