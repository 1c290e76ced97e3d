package protocol

import "repro/internal/model"

// The one-round write: the client sends its writes with its dependencies,
// and each server installs its share and acknowledges with the stamp it
// gave them. cops, contrarian, copssnow, gentlerain and orbe write one
// object, at its primary (SendPrimaryWrite); eigerps, naivefast and
// fatcops write many, at every replica (SendWrites). What is sent is
// this; what a model keeps is its dependencies, its stamps, its store
// calls and its phases. D is what a write carries beside its writes
// (dependencies, a stamp, a vector, fat metadata), S the stamp an ack
// carries (an install sequence, a stamp, a vector); struct{} stands in
// for either where a model has none.

// Write asks a server to install Writes, its share of the transaction's
// writes, after Dep.
type Write[D any] struct {
	Msg
	Dep    D
	Writes []model.Write
}

func (*Write[D]) Kind() string { return "write-req" }

// WriteAck acknowledges a Write with the server's stamp for it.
type WriteAck[S any] struct {
	Stamp S
	Msg
}

func (*WriteAck[S]) Kind() string { return "write-ack" }

// SendWrites sends the active transaction's writes, one Write per
// WriteShares entry in Servers() order, each carrying dep: the writes
// share dep, so it must not be written after the call.
func SendWrites[D any](c *Core, dep D) {
	for _, sh := range c.pl.WriteShares(c.cur.Writes) {
		c.Send(sh.Server, &Write[D]{Msg: Msg{TID: c.cur.ID}, Dep: dep, Writes: sh.Items})
	}
}

// SendPrimaryWrite sends the active transaction's last write, and only
// it, to its object's primary: a transaction that writes one object twice
// installs its last value. Its Write carries exactly one write.
func SendPrimaryWrite[D any](c *Core, dep D) {
	last := c.cur.Writes[len(c.cur.Writes)-1:]
	c.Send(c.pl.PrimaryOf(last[0].Object), &Write[D]{Msg: Msg{TID: c.cur.ID}, Dep: dep, Writes: last})
}
