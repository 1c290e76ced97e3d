package ptest

import (
	"fmt"
	"maps"
	"reflect"
	"slices"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// answer names the reply each request kind awaits; "values" is any
// payload that carries values (protocol.ValueCarrier).
var answer = map[string]string{
	"read-req": "values", "by-writer-req": "values",
	"write-req": "write-ack", "prepare": "prepare-ack", "commit": "commit-ack",
}

var acks = map[string]bool{"write-ack": true, "prepare-ack": true, "commit-ack": true}

// awaited is what a reply must match: the server the request went to,
// its transaction and the reply kind.
type awaited struct {
	server sim.ProcessID
	txn    model.TxnID
	kind   string
}

// rounds is one client's open requests, each entry the objects a read
// asked for (nil for the others), and the log of the first broken
// round contract over every client of a run.
type rounds struct {
	log  *error
	fat  bool // replies may carry more values than asked for (no OneValue claim)
	open map[awaited][][]string
}

// received matches every reply in inbox to an open request, which it
// closes: the reply comes from the server the request went to, for its
// transaction, and a read's reply carries the read's objects in order.
// The transaction must still be the client's active one as the step
// begins, when cur (every model's protocol.Core) says which that is: a
// client that finished before a reply it awaited came in counted its
// round as done too early.
func (r *rounds) received(client sim.ProcessID, cur current, inbox []*sim.Message) {
	for _, m := range inbox {
		tp, ok := m.Payload.(protocol.TxnPayload)
		if !ok {
			continue
		}
		k, carried := awaited{m.From, tp.Txn(), tp.Kind()}, []string(nil)
		if vc, ok := tp.(protocol.ValueCarrier); ok {
			k.kind = "values"
			for _, v := range vc.CarriedValues() {
				carried = append(carried, v.Object)
			}
		} else if !acks[k.kind] {
			continue
		}
		open := r.open[k]
		i := slices.IndexFunc(open, func(asked []string) bool { return r.answers(asked, carried) })
		if i < 0 {
			r.fail(fmt.Errorf("%s got %s from %s for %s (objects %v) answering no open request; open: %v",
				client, tp.Kind(), m.From, tp.Txn(), carried, open))
			continue
		}
		r.open[k] = slices.Delete(open, i, i+1)
		if cur == nil {
			continue
		}
		if active := cur.Current(); active == nil || active.ID != tp.Txn() {
			r.fail(fmt.Errorf("%s got %s from %s for %s after that transaction finished", client, tp.Kind(), m.From, tp.Txn()))
		}
	}
}

// current is a client naming its active transaction (nil when idle):
// protocol.Core's Current, which every model's client embeds.
type current interface{ Current() *model.Txn }

// answers reports whether a reply carrying the objects carried answers
// a request for asked: the same objects in order, or for a fat reply,
// asked in order among the others.
func (r *rounds) answers(asked, carried []string) bool {
	if !r.fat {
		return slices.Equal(asked, carried)
	}
	for _, o := range carried {
		if len(asked) > 0 && o == asked[0] {
			asked = asked[1:]
		}
	}
	return len(asked) == 0
}

// sent opens a request for every send in out that awaits a reply.
func (r *rounds) sent(out []sim.Outbound) {
	for _, o := range out {
		tp, ok := o.Payload.(protocol.TxnPayload)
		if !ok || answer[tp.Kind()] == "" {
			continue
		}
		var objs []string
		if answer[tp.Kind()] == "values" {
			// A protocol.Read asks for Objs, ramp's by-writer read for one Object.
			v := reflect.ValueOf(tp).Elem()
			if f := v.FieldByName("Objs"); f.IsValid() {
				objs = f.Interface().([]string)
			} else {
				objs = []string{v.FieldByName("Object").String()}
			}
		}
		k := awaited{o.To, tp.Txn(), answer[tp.Kind()]}
		r.open[k] = append(r.open[k], objs)
	}
}

func (r *rounds) fail(err error) {
	if *r.log == nil {
		*r.log = err
	}
}

func (r *rounds) clone() *rounds {
	c := *r
	c.open = make(map[awaited][][]string, len(r.open))
	for k, q := range r.open {
		c.open[k] = slices.Clone(q)
	}
	return &c
}

// unanswered reports the first of clients' requests still open, in
// client and message order; nil when every one was answered.
func unanswered(clients map[sim.ProcessID]*rounds) error {
	for _, id := range slices.Sorted(maps.Keys(clients)) {
		var open []string
		for k, q := range clients[id].open {
			for _, objs := range q {
				open = append(open, fmt.Sprintf("%s from %s for %s (objects %v)", k.kind, k.server, k.txn, objs))
			}
		}
		if len(open) > 0 {
			slices.Sort(open)
			return fmt.Errorf("%s never got %d awaited replies: %v", id, len(open), open)
		}
	}
	return nil
}
