package protocol

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/vclock"
)

// Order is a total order on stamps of type S, implemented by an empty
// struct: Pending and Stabilizer carry it in their type, not in a field,
// so two copies of one compare equal under reflect.DeepEqual, and a zero
// Pending is ready (a Stabilizer comes only from NewStabilizer).
type Order[S any] interface{ Less(a, b S) bool }

// Counters orders integer stamps and HLCs hybrid logical clock stamps.
type (
	Counters struct{}
	HLCs     struct{}
)

func (Counters) Less(a, b int64) bool       { return a < b }
func (HLCs) Less(a, b vclock.HLCStamp) bool { return a.Before(b) }

// Pending is a server's prepared-but-uncommitted transactions with their
// prepare stamps, ordered by O. Servers stamp prepares from a clock
// that only grows (cure's sequence, spanner's guarded TrueTime, eiger's
// Lamport clock, wren's hybrid clock), so the entries, kept in prepare
// order, are also in stamp order: the smallest pending stamp is the
// oldest entry still pending, and Min reads it without a scan.
//
// A commit removes its transaction from the map; its place in the order
// becomes stale, is passed over once it reaches the head and is dropped
// by the next compaction. The head is always live, so Min only reads. The
// zero value is empty and ready to use.
type Pending[S comparable, O Order[S]] struct {
	stamp map[model.TxnID]S
	order []pendingEntry[S] // prepare order; order[head:] is the queue
	head  int
	last  S // the largest stamp added, to refuse one out of order
}

type pendingEntry[S comparable] struct {
	tid   model.TxnID
	stamp S
}

// Add records tid as prepared at stamp, which must exceed every stamp
// added before. Adding a pending tid again moves it to the new stamp.
func (p *Pending[S, O]) Add(tid model.TxnID, stamp S) {
	var o O
	if len(p.order) > p.head && !o.Less(p.last, stamp) {
		panic(fmt.Sprintf("protocol: pending stamp %v for %s not above %v", stamp, tid, p.last))
	}
	if p.stamp == nil {
		p.stamp = make(map[model.TxnID]S)
	}
	p.stamp[tid] = stamp
	p.last = stamp
	p.order = append(p.order, pendingEntry[S]{tid, stamp})
	p.settle()
}

// Remove forgets tid; removing a tid that is not pending is a no-op.
func (p *Pending[S, O]) Remove(tid model.TxnID) {
	if _, ok := p.stamp[tid]; !ok {
		return
	}
	delete(p.stamp, tid)
	p.settle()
}

// Min returns the smallest pending stamp, false if nothing is pending.
func (p *Pending[S, O]) Min() (S, bool) {
	if p.head == len(p.order) {
		var zero S
		return zero, false
	}
	return p.order[p.head].stamp, true
}

// Clone returns an independent copy holding the live entries only.
func (p *Pending[S, O]) Clone() Pending[S, O] {
	c := Pending[S, O]{last: p.last}
	if len(p.stamp) > 0 {
		c.stamp = make(map[model.TxnID]S, len(p.stamp))
		c.order = make([]pendingEntry[S], 0, len(p.stamp))
		for _, e := range p.order[p.head:] {
			if p.live(e) {
				c.stamp[e.tid] = e.stamp
				c.order = append(c.order, e)
			}
		}
	}
	return c
}

func (p *Pending[S, O]) live(e pendingEntry[S]) bool {
	s, ok := p.stamp[e.tid]
	return ok && s == e.stamp
}

// settle restores the invariant after a change: the head is live or the
// queue is empty. Places before the head and stale places behind it are
// dropped together once they outnumber the live entries by enough to pay
// for the copy.
func (p *Pending[S, O]) settle() {
	for p.head < len(p.order) && !p.live(p.order[p.head]) {
		p.head++
	}
	if len(p.order) > 2*len(p.stamp)+32 {
		kept := p.order[:0]
		for _, e := range p.order[p.head:] {
			if p.live(e) {
				kept = append(kept, e)
			}
		}
		clear(p.order[len(kept):])
		p.order, p.head = kept, 0
	}
}
