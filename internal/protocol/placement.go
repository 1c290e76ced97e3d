package protocol

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/sim"
)

// Placement maps objects to the servers storing them. The paper's main
// theorem uses disjoint placement (each object on exactly one server); the
// general theorem (appendix) allows partial replication: replica sets may
// overlap but no server stores every object.
type Placement struct {
	servers  []sim.ProcessID
	objects  []string
	replicas map[string][]sim.ProcessID
	hosted   map[sim.ProcessID][]string
	index    map[sim.ProcessID]int
	// replicated: some object has more than one replica.
	replicated bool
}

// NewPlacement builds a placement from an explicit object→servers map. Each
// object's servers keep the order given: the first named is its primary.
func NewPlacement(replicas map[string][]sim.ProcessID) *Placement {
	p := &Placement{
		replicas: make(map[string][]sim.ProcessID, len(replicas)),
		hosted:   make(map[sim.ProcessID][]string),
		index:    make(map[sim.ProcessID]int),
	}
	for obj, srvs := range replicas {
		if len(srvs) == 0 {
			panic(fmt.Sprintf("protocol: object %s has no replicas", obj))
		}
		cp := append([]sim.ProcessID(nil), srvs...)
		p.replicas[obj] = cp
		p.replicated = p.replicated || len(cp) > 1
		p.objects = append(p.objects, obj)
		for _, s := range cp {
			p.hosted[s] = append(p.hosted[s], obj)
		}
	}
	sort.Strings(p.objects)
	for s := range p.hosted {
		sort.Strings(p.hosted[s])
		p.servers = append(p.servers, s)
	}
	sort.Slice(p.servers, func(i, j int) bool { return p.servers[i] < p.servers[j] })
	for i, s := range p.servers {
		p.index[s] = i
	}
	return p
}

// Disjoint builds the paper's base placement: nServers servers named
// "s0".., each exclusively hosting perServer objects named "X0", "X1", ...
func Disjoint(nServers, perServer int) *Placement {
	replicas := make(map[string][]sim.ProcessID)
	for i := 0; i < nServers; i++ {
		sid := sim.ProcessID(fmt.Sprintf("s%d", i))
		for j := 0; j < perServer; j++ {
			obj := fmt.Sprintf("X%d", i*perServer+j)
			replicas[obj] = []sim.ProcessID{sid}
		}
	}
	return NewPlacement(replicas)
}

// Replicated builds a partially replicated placement: nObjects objects,
// object Xj hosted on the r servers j%n, (j+1)%n, ..., (j+r-1)%n, the
// first of them its primary, so primaries rotate over the servers. With
// r < n no server stores every object (for nObjects ≥ n), matching the
// appendix model.
func Replicated(nServers, nObjects, r int) *Placement {
	if r < 1 {
		r = 1
	}
	if r > nServers {
		r = nServers
	}
	replicas := make(map[string][]sim.ProcessID)
	for j := 0; j < nObjects; j++ {
		var srvs []sim.ProcessID
		for k := 0; k < r; k++ {
			srvs = append(srvs, sim.ProcessID(fmt.Sprintf("s%d", (j+k)%nServers)))
		}
		replicas[fmt.Sprintf("X%d", j)] = srvs
	}
	return NewPlacement(replicas)
}

// Servers returns all server IDs, sorted.
func (p *Placement) Servers() []sim.ProcessID {
	return append([]sim.ProcessID(nil), p.servers...)
}

// NumServers returns the server count.
func (p *Placement) NumServers() int { return len(p.servers) }

// Objects returns all object names, sorted.
func (p *Placement) Objects() []string {
	return append([]string(nil), p.objects...)
}

// ObjectIndex returns obj's position in Objects(), a dense index for
// per-object vectors.
func (p *Placement) ObjectIndex(obj string) int {
	i, ok := slices.BinarySearch(p.objects, obj)
	if !ok {
		panic(fmt.Sprintf("protocol: no placement for object %s", obj))
	}
	return i
}

// ReplicasOf returns the servers hosting obj, primary first. Nil if unknown.
func (p *Placement) ReplicasOf(obj string) []sim.ProcessID {
	return append([]sim.ProcessID(nil), p.replicas[obj]...)
}

// PrimaryOf returns the first (coordinating) replica of obj.
func (p *Placement) PrimaryOf(obj string) sim.ProcessID {
	srvs := p.replicas[obj]
	if len(srvs) == 0 {
		panic(fmt.Sprintf("protocol: no placement for object %s", obj))
	}
	return srvs[0]
}

// HostedBy returns the objects stored on server id, sorted.
func (p *Placement) HostedBy(id sim.ProcessID) []string {
	return append([]string(nil), p.hosted[id]...)
}

// Hosts reports whether server id stores obj.
func (p *Placement) Hosts(id sim.ProcessID, obj string) bool {
	for _, o := range p.hosted[id] {
		if o == obj {
			return true
		}
	}
	return false
}

// ServerIndex returns the dense index of a server (for vector clocks).
func (p *Placement) ServerIndex(id sim.ProcessID) int {
	i, ok := p.index[id]
	if !ok {
		panic(fmt.Sprintf("protocol: unknown server %s", id))
	}
	return i
}

// IsReplicated reports whether any object has more than one replica.
func (p *Placement) IsReplicated() bool { return p.replicated }

// Share is one server's part of a request fanned out over the placement.
type Share[T any] struct {
	Server sim.ProcessID
	Items  []T
}

// ReadShares splits a read set by primary replica and WriteShares a write
// set over every replica of each written object. Both return the involved
// servers in Servers() order — the one order every fan-out sends in, so
// message IDs and latency draws never depend on who wrote the loop — each
// with its items in request order, repeats kept.
//
// ReadShares writes the shares over dst's backing array. A share whose
// objects are adjacent in objs takes them as a slice of objs, so objs
// must not be written after the call; the others are carved from one
// fresh array. Every share's Items is capped at its own length, so an
// append to one share never reaches the next.
func (p *Placement) ReadShares(dst []Share[string], objs []string) []Share[string] {
	var small [8]sim.ProcessID
	prim := small[:0] // objs[j]'s primary
	out := dst[:0]
	for _, obj := range objs {
		srv := p.PrimaryOf(obj)
		prim = append(prim, srv)
		out, _ = openShare(out, srv)
	}
	var items []string
	for i := range out {
		first, last, n := -1, 0, 0
		for j := range objs {
			if prim[j] == out[i].Server {
				if first < 0 {
					first = j
				}
				last, n = j+1, n+1
			}
		}
		if last-first == n {
			out[i].Items = objs[first:last:last]
			continue
		}
		if items == nil {
			items = make([]string, 0, len(objs))
		}
		k := len(items)
		for j, obj := range objs {
			if prim[j] == out[i].Server {
				items = append(items, obj)
			}
		}
		out[i].Items = items[k:len(items):len(items)]
	}
	return out
}

// WriteShares: see ReadShares; its Items share one backing array the
// same way.
func (p *Placement) WriteShares(writes []model.Write) []Share[model.Write] {
	var small [8][]sim.ProcessID
	reps := small[:0] // writes[j]'s replicas
	n := 0
	for _, w := range writes {
		r := p.replicas[w.Object]
		reps = append(reps, r)
		n += len(r)
	}
	out := make([]Share[model.Write], 0, min(n, len(p.servers)))
	for _, r := range reps {
		for _, srv := range r {
			out, _ = openShare(out, srv)
		}
	}
	items := make([]model.Write, 0, n)
	for i := range out {
		k := len(items)
		for j, w := range writes {
			for _, srv := range reps[j] {
				if srv == out[i].Server {
					items = append(items, w)
				}
			}
		}
		out[i].Items = items[k:len(items):len(items)]
	}
	return out
}

// openShare returns out with srv's share and its index, opening the share
// at its sorted position if out has none (Servers() is sorted by ID, so
// comparing IDs keeps its order).
func openShare[T any](out []Share[T], srv sim.ProcessID) ([]Share[T], int) {
	i := 0
	for i < len(out) && out[i].Server < srv {
		i++
	}
	if i == len(out) || out[i].Server != srv {
		out = slices.Insert(out, i, Share[T]{Server: srv})
	}
	return out, i
}

// ServersFor returns the sorted union of replicas of the given objects.
func (p *Placement) ServersFor(objects []string) []sim.ProcessID {
	n := 0
	for _, o := range objects {
		n += len(p.replicas[o])
	}
	if n == 0 {
		return nil
	}
	out := make([]sim.ProcessID, 0, min(n, len(p.servers)))
	for _, o := range objects {
		for _, s := range p.replicas[o] {
			if i, found := slices.BinarySearch(out, s); !found {
				out = slices.Insert(out, i, s)
			}
		}
	}
	return out
}
