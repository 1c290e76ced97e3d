package protocol

import (
	"fmt"

	"repro/internal/model"
)

// Pending is a server's prepared-but-uncommitted transactions with their
// prepare stamps. Servers stamp prepares from a counter that only grows
// (cure's sequence, spanner's guarded TrueTime, eiger's Lamport clock), so
// the entries, kept in prepare order, are also in stamp order: the
// smallest pending stamp is the oldest entry still pending, and Min reads
// it without a scan.
//
// A commit removes its transaction from the map; its place in the order
// becomes stale, is passed over once it reaches the head and is dropped
// by the next compaction. The head is always live, so Min only reads. The
// zero value is empty and ready to use.
type Pending struct {
	stamp map[model.TxnID]int64
	order []pendingEntry // prepare order; order[head:] is the queue
	head  int
	last  int64 // the largest stamp added, to refuse one out of order
}

type pendingEntry struct {
	tid   model.TxnID
	stamp int64
}

// Add records tid as prepared at stamp, which must exceed every stamp
// added before. Adding a pending tid again moves it to the new stamp.
func (p *Pending) Add(tid model.TxnID, stamp int64) {
	if len(p.order) > p.head && stamp <= p.last {
		panic(fmt.Sprintf("protocol: pending stamp %d for %s not above %d", stamp, tid, p.last))
	}
	if p.stamp == nil {
		p.stamp = make(map[model.TxnID]int64)
	}
	p.stamp[tid] = stamp
	p.last = stamp
	p.order = append(p.order, pendingEntry{tid, stamp})
	p.settle()
}

// Remove forgets tid; removing a tid that is not pending is a no-op.
func (p *Pending) Remove(tid model.TxnID) {
	if _, ok := p.stamp[tid]; !ok {
		return
	}
	delete(p.stamp, tid)
	p.settle()
}

// Min returns the smallest pending stamp, false if nothing is pending.
func (p *Pending) Min() (int64, bool) {
	if p.head == len(p.order) {
		return 0, false
	}
	return p.order[p.head].stamp, true
}

// Clone returns an independent copy holding the live entries only.
func (p *Pending) Clone() Pending {
	c := Pending{last: p.last}
	if len(p.stamp) > 0 {
		c.stamp = make(map[model.TxnID]int64, len(p.stamp))
		c.order = make([]pendingEntry, 0, len(p.stamp))
		for _, e := range p.order[p.head:] {
			if p.live(e) {
				c.stamp[e.tid] = e.stamp
				c.order = append(c.order, e)
			}
		}
	}
	return c
}

func (p *Pending) live(e pendingEntry) bool {
	s, ok := p.stamp[e.tid]
	return ok && s == e.stamp
}

// settle restores the invariant after a change: the head is live or the
// queue is empty. Places before the head and stale places behind it are
// dropped together once they outnumber the live entries by enough to pay
// for the copy.
func (p *Pending) settle() {
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
