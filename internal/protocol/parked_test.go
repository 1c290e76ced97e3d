package protocol

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestParked: Offer serves a ready request at once and parks the rest;
// Retry serves the ready ones in arrival order and keeps the others in
// arrival order in the same array; a clone shares the requests, and
// appending to it leaves the original alone.
func TestParked(t *testing.T) {
	type req struct{ n int }
	var served []string
	serve := func(from sim.ProcessID, r *req) { served = append(served, fmt.Sprintf("%s:%d", from, r.n)) }
	below := func(limit int) func(*req) bool { return func(r *req) bool { return r.n < limit } }
	reqsOf := func(p Parked[*req]) []*req {
		var out []*req
		for _, d := range p {
			out = append(out, d.Req)
		}
		return out
	}

	var p Parked[*req]
	reqs := []*req{{5}, {1}, {7}, {3}, {6}, {2}}
	for i, r := range reqs {
		p.Offer(sim.ProcessID(fmt.Sprintf("c%d", i)), r, below(2), serve)
	}
	if want := []string{"c1:1"}; !slices.Equal(served, want) {
		t.Fatalf("Offer served %v, want %v", served, want)
	}
	if len(p) != 5 {
		t.Fatalf("%d parked, want 5", len(p))
	}

	c := p.Clone()
	served = nil
	array := &p[0]
	p.Retry(below(6), serve)
	if want := []string{"c0:5", "c3:3", "c5:2"}; !slices.Equal(served, want) {
		t.Fatalf("Retry served %v, want %v", served, want)
	}
	if got := reqsOf(p); !slices.Equal(got, []*req{reqs[2], reqs[4]}) {
		t.Fatalf("still parked %v, want 7 then 6", got)
	}
	if &p[0] != array {
		t.Fatal("Retry moved the queue to a new array")
	}

	if got := reqsOf(c); !slices.Equal(got, []*req{reqs[0], reqs[2], reqs[3], reqs[4], reqs[5]}) {
		t.Fatalf("the clone holds %v, want the five requests parked when it was taken", got)
	}
	c.Offer("c9", &req{9}, below(0), serve)
	if len(c) != 6 || len(p) != 2 || p[:cap(p)][2] != (parked[*req]{}) {
		t.Fatalf("appending to the clone reached the original: clone %d, original %d", len(c), len(p))
	}
}
