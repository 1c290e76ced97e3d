package protocol

import "repro/internal/model"

// The two-phase commit of cure, eiger, ramp, spanner, wren and twopcfast:
// the client prepares its writes at every replica of each written object,
// folds the servers' prepare stamps into a commit stamp, then commits at
// the same servers. The four messages and both fan-outs are these; what a
// model keeps is its stamps, its store calls and its phases. D is what a
// prepare carries beside its writes (a dependency stamp, ramp's write
// set), S the stamp a prepare ack or a commit carries; struct{} stands in
// for either where a model has none.

// Prepare asks a server to install its share of a write transaction.
type Prepare[D any] struct {
	Msg
	Writes []model.Write
	Dep    D
}

func (*Prepare[D]) Kind() string { return "prepare" }

// Prepared acknowledges a Prepare with the server's proposal.
type Prepared[S any] struct {
	Msg
	Stamp S
}

func (*Prepared[S]) Kind() string { return "prepare-ack" }

// Commit makes a prepared transaction visible at the stamp the client
// chose.
type Commit[S any] struct {
	Msg
	Stamp S
}

func (*Commit[S]) Kind() string { return "commit" }

// Committed acknowledges a Commit; it carries only the header.
type Committed struct{ Msg }

func (*Committed) Kind() string { return "commit-ack" }

// SendPrepares sends the active transaction's prepares, one per
// WriteShares entry in Servers() order, each carrying dep: the prepares
// share dep, so it must not be written after the call.
func SendPrepares[D any](c *Core, dep D) {
	for _, sh := range c.pl.WriteShares(c.cur.Writes) {
		c.Send(sh.Server, &Prepare[D]{Msg: Msg{TID: c.cur.ID}, Writes: sh.Items, Dep: dep})
	}
}

// SendCommits sends the active transaction's commits to the servers its
// prepares reached, ServersFor(WriteSet()), in the same order, each
// carrying stamp (shared, like SendPrepares' dep).
func SendCommits[S any](c *Core, stamp S) {
	for _, srv := range c.pl.ServersFor(c.cur.WriteSet()) {
		c.Send(srv, &Commit[S]{Msg: Msg{TID: c.cur.ID}, Stamp: stamp})
	}
}
