package protocol

import (
	"slices"

	"repro/internal/sim"
)

// Parked is a blocking server's deferred requests in arrival order, and
// the one way a server defers one: the price of giving up the paper's N
// property (Definition 4: a server answers a read in the step that
// receives it). A request the server cannot answer yet waits here with
// its sender until a later step's Retry finds it ready. Requests are
// payloads, immutable once sent, so a clone shares them and copies only
// the queue. The zero value is empty and ready to use.
type Parked[R any] []parked[R]

// parked is one deferred request and the process that sent it.
type parked[R any] struct {
	From sim.ProcessID
	Req  R
}

// Offer serves req, sent by from, now if ready(req), and parks it
// otherwise.
func (p *Parked[R]) Offer(from sim.ProcessID, req R, ready func(R) bool, serve func(sim.ProcessID, R)) {
	if ready(req) {
		serve(from, req)
		return
	}
	*p = append(*p, parked[R]{from, req})
}

// Retry serves, in arrival order, every parked request ready admits now,
// and keeps the rest parked in place.
func (p *Parked[R]) Retry(ready func(R) bool, serve func(sim.ProcessID, R)) {
	still := (*p)[:0]
	for _, d := range *p {
		if ready(d.Req) {
			serve(d.From, d.Req)
		} else {
			still = append(still, d)
		}
	}
	clear((*p)[len(still):])
	*p = still
}

// Clone copies the queue and shares the requests.
func (p Parked[R]) Clone() Parked[R] { return slices.Clone(p) }
