package protocol

import "slices"

// Gather is a client's fold of its read-only transaction's replies: Vals
// holds one value per object of the active transaction's read set,
// aligned with Txn.ReadSet, zero (⊥) until a reply brings one. A model
// reads Vals for its own metadata rule (the max stamp, the merged
// vector, the dependency union) and then fills the result in one call.
type Gather[M any] struct {
	Vals []Val[M]
}

// Start makes one zero slot per object of the active transaction's read
// set, reusing Vals' capacity.
func (g *Gather[M]) Start(c *Core) {
	n := len(c.cur.ReadSet)
	g.Vals = slices.Grow(g.Vals[:0], n)[:n]
	clear(g.Vals)
}

// Put stores r's values in their objects' slots. With newer nil each
// overwrites its slot; otherwise a value replaces the slot's cur only
// where newer(v, cur) holds, which keeps the newer of two rounds.
func (g *Gather[M]) Put(c *Core, r *ReadReply[M], newer func(v, cur Val[M]) bool) {
	for _, v := range r.Vals {
		s := &g.Vals[slices.Index(c.cur.ReadSet, v.Ref.Object)]
		if newer == nil || newer(v, *s) {
			*s = v
		}
	}
}

// Fill writes every slot's value into the active transaction's result
// and empties the slots, keeping their capacity for the next Start.
func (g *Gather[M]) Fill(c *Core) {
	for i, v := range g.Vals {
		c.curRes.Values[i] = v.Ref.Value
	}
	clear(g.Vals)
	g.Vals = g.Vals[:0]
}

// Clone copies the slots; their metadata is shared, as replies share it.
func (g *Gather[M]) Clone() Gather[M] { return Gather[M]{Vals: slices.Clone(g.Vals)} }

// Fill writes r's values straight into the active transaction's result,
// for a model with no metadata to fold across replies.
func (r *ReadReply[M]) Fill(c *Core) {
	for _, v := range r.Vals {
		c.curRes.SetValue(v.Ref.Object, v.Ref.Value)
	}
}
