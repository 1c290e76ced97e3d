package protocol

import (
	"repro/internal/model"
	"repro/internal/store"
)

// The read round of every model's read-only transaction (Definition 4's
// subject): the client sends each server its share of the read set, and
// the server answers with one value per object, or ⊥. What is sent is
// this; what a model keeps is its snapshot, its store lookup, its fold of
// the replies and its phases. Q is the snapshot or timestamp a read
// carries (a vector, a hybrid clock stamp, a TrueTime or effective time),
// M what a reply carries per value beside it (the version's stamp,
// vector, dependencies or write set); struct{} stands in for either
// where a model has none. fatcops alone answers with its own reply: it
// carries many values per object.
//
// A zero-size type argument sits on a field that is not last, so the
// struct{} instances are no larger than the fields they carry.

// Read asks a server for the values of Objs, its share of the read set,
// at At.
type Read[Q any] struct {
	Msg
	At   Q
	Objs []string
}

func (*Read[Q]) Kind() string { return "read-req" }

// Val is one object's entry in a ReadReply: the value read, ⊥ if the
// server had none, and the model's metadata for it.
type Val[M any] struct {
	Meta M
	Ref  model.ValueRef
}

// ReadReply answers a Read with one Val per requested object, in Objs
// order.
type ReadReply[M any] struct {
	Msg
	Vals []Val[M]
}

func (*ReadReply[M]) Kind() string { return "read-resp" }

// CarriedValues implements ValueCarrier: the refs in Vals order, ⊥
// included.
func (r *ReadReply[M]) CarriedValues() []model.ValueRef {
	out := make([]model.ValueRef, len(r.Vals))
	for i, v := range r.Vals {
		out[i] = v.Ref
	}
	return out
}

// ReplyTo returns req's empty reply, with room for a Val per object: a
// one-object reply comes in one allocation with its Val.
func ReplyTo[M, Q any](req *Read[Q]) *ReadReply[M] {
	if len(req.Objs) == 1 {
		b := &struct {
			r ReadReply[M]
			v [1]Val[M]
		}{r: ReadReply[M]{Msg: req.Msg}}
		b.r.Vals = b.v[:0]
		return &b.r
	}
	return &ReadReply[M]{Msg: req.Msg, Vals: make([]Val[M], 0, len(req.Objs))}
}

// Add appends obj's entry: v's value and writer, or ⊥ where v is nil,
// with meta.
func (r *ReadReply[M]) Add(obj string, v *store.Version, meta M) {
	ref := model.ValueRef{Object: obj, Value: model.Bottom}
	if v != nil {
		ref.Value, ref.Writer = v.Value, v.Writer
	}
	r.Vals = append(r.Vals, Val[M]{Meta: meta, Ref: ref})
}

// SendReads sends the active transaction's reads, one per ReadShares
// entry in Servers() order, each carrying at: the reads share at, so it
// must not be written after the call. The shares are built in the
// client's own buffer, and their objects alias the read set where they
// can (transactions are immutable once invoked).
func SendReads[Q any](c *Core, at Q) {
	c.shares = c.pl.ReadShares(c.shares, c.cur.ReadSet)
	for _, sh := range c.shares {
		c.Send(sh.Server, &Read[Q]{Msg: Msg{TID: c.cur.ID}, At: at, Objs: sh.Items})
	}
}
