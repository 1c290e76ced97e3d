// Package copssnow models COPS-SNOW (Lu et al., OSDI 2016 — the system the
// SNOW paper builds to show the achievable N+O+V corner): read-only
// transactions are fast (one round, one value, non-blocking), consistency
// is causal, and the price is functionality — only single-object write
// transactions are supported.
//
// Mechanism (simplified but message-pattern faithful): every read-only
// transaction is recorded at each server it reads from, together with the
// version it read. A write carries the client's causal dependencies;
// before making the new version visible, the server contacts the servers
// storing the dependencies, which (a) confirm the dependency is visible
// and (b) return the identifiers of read-only transactions that read an
// older version ("old readers"). The new version is then made visible but
// hidden from those old readers, so no ROT ever observes a causal
// inversion.
package copssnow

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
)

// Protocol is the copssnow factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "copssnow" }

// Claims implements protocol.Protocol: fast ROTs, no multi-object writes.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      true,
		OneValue:      true,
		NonBlocking:   true,
		MultiWriteTxn: false,
		Consistency:   "causal",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{
		ServerCore: protocol.NewServerCore(id, pl),
		readers:    make(map[string][]readerRec),
		pending:    make(map[model.TxnID]*pendingWrite),
	}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p), deps: make(map[string]model.ValueRef)}
}

// --- payloads ---

type readReq struct {
	TID  model.TxnID
	Objs []string
}

func (p *readReq) Kind() string     { return "read-req" }
func (p *readReq) Txn() model.TxnID { return p.TID }

type readResp struct {
	TID  model.TxnID
	Vals []model.ValueRef
}

func (p *readResp) Kind() string                    { return "read-resp" }
func (p *readResp) Txn() model.TxnID                { return p.TID }
func (p *readResp) CarriedValues() []model.ValueRef { return p.Vals }

type writeReq struct {
	TID  model.TxnID
	W    model.Write
	Deps []model.ValueRef // causal dependencies (object, value, writer)
}

func (p *writeReq) Kind() string     { return "write-req" }
func (p *writeReq) Txn() model.TxnID { return p.TID }

type writeResp struct {
	TID model.TxnID
}

func (p *writeResp) Kind() string     { return "write-ack" }
func (p *writeResp) Txn() model.TxnID { return p.TID }

// depCheck asks the server storing a dependency to confirm it is visible
// and to report the read-only transactions that read an older version.
type depCheck struct {
	ForTxn model.TxnID // the writing transaction
	Items  []model.ValueRef
}

func (p *depCheck) Kind() string     { return "dep-check" }
func (p *depCheck) Txn() model.TxnID { return p.ForTxn }

type depResp struct {
	ForTxn     model.TxnID
	Resolved   int
	OldReaders []model.TxnID
}

func (p *depResp) Kind() string     { return "dep-resp" }
func (p *depResp) Txn() model.TxnID { return p.ForTxn }

// --- server ---

type readerRec struct {
	rot model.TxnID
	seq int64 // version sequence number the ROT read (0 = initial/none)
}

type pendingWrite struct {
	w          model.Write
	client     sim.ProcessID
	remaining  int
	oldReaders []model.TxnID
}

type deferredCheck struct {
	origin sim.ProcessID
	forTxn model.TxnID
	item   model.ValueRef
}

type server struct {
	protocol.ServerCore
	readers  map[string][]readerRec
	pending  map[model.TxnID]*pendingWrite
	deferred []deferredCheck
}

func (s *server) Clone() sim.Process {
	c := &server{
		ServerCore: s.CloneServerCore(),
		readers:    make(map[string][]readerRec, len(s.readers)),
		pending:    make(map[model.TxnID]*pendingWrite, len(s.pending)),
	}
	for k, v := range s.readers {
		c.readers[k] = append([]readerRec(nil), v...)
	}
	for k, v := range s.pending {
		pw := *v
		pw.oldReaders = append([]model.TxnID(nil), v.oldReaders...)
		c.pending[k] = &pw
	}
	c.deferred = append([]deferredCheck(nil), s.deferred...)
	return c
}

// oldReadersOf returns the ROTs that read a version of obj older than seq.
func (s *server) oldReadersOf(obj string, seq int64) []model.TxnID {
	var out []model.TxnID
	for _, r := range s.readers[obj] {
		if r.seq < seq {
			out = append(out, r.rot)
		}
	}
	return out
}

// resolveCheck tries to answer one dependency item; ok=false means the
// dependency version is not visible here yet.
func (s *server) resolveCheck(item model.ValueRef) ([]model.TxnID, bool) {
	v := s.ShardStore().Find(item.Object, item.Writer)
	if v == nil || !v.Visible {
		return nil, false
	}
	return s.oldReadersOf(item.Object, v.Seq), true
}

// finishWrite installs the pending write visibly, hidden from old readers,
// and acknowledges it.
func (s *server) finishWrite(tid model.TxnID) {
	pw := s.pending[tid]
	delete(s.pending, tid)
	hidden := make(map[model.TxnID]bool, len(pw.oldReaders))
	for _, r := range pw.oldReaders {
		hidden[r] = true
	}
	s.ShardStore().Install(&store.Version{
		Object: pw.w.Object, Value: pw.w.Value, Writer: tid,
		Visible: true, HiddenFrom: hidden,
	})
	s.Send(pw.client, &writeResp{TID: tid})
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readReq:
			resp := &readResp{TID: p.TID}
			for _, obj := range p.Objs {
				v := s.ShardStore().LatestVisibleFor(obj, p.TID)
				var seq int64
				if v != nil {
					seq = v.Seq
					resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer})
				} else {
					resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: model.Bottom})
				}
				s.readers[obj] = append(s.readers[obj], readerRec{rot: p.TID, seq: seq})
			}
			s.Send(m.From, resp)

		case *writeReq:
			pw := &pendingWrite{w: p.W, client: m.From}
			s.pending[p.TID] = pw
			// Partition dependencies: local ones resolve now; remote ones
			// are batched per owning server.
			remote := make(map[sim.ProcessID][]model.ValueRef)
			for _, dep := range p.Deps {
				owner := s.Placement().PrimaryOf(dep.Object)
				if owner == s.ID() {
					if olds, resolved := s.resolveCheck(dep); resolved {
						pw.oldReaders = append(pw.oldReaders, olds...)
					} else {
						// Local dependency not visible yet: defer to self.
						pw.remaining++
						s.deferred = append(s.deferred, deferredCheck{origin: s.ID(), forTxn: p.TID, item: dep})
					}
					continue
				}
				remote[owner] = append(remote[owner], dep)
				pw.remaining++
			}
			owners := make([]sim.ProcessID, 0, len(remote))
			for o := range remote {
				owners = append(owners, o)
			}
			sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
			for _, o := range owners {
				s.Send(o, &depCheck{ForTxn: p.TID, Items: remote[o]})
			}
			if pw.remaining == 0 {
				s.finishWrite(p.TID)
			}

		case *depCheck:
			resp := &depResp{ForTxn: p.ForTxn}
			for _, item := range p.Items {
				if olds, resolved := s.resolveCheck(item); resolved {
					resp.Resolved++
					resp.OldReaders = append(resp.OldReaders, olds...)
				} else {
					s.deferred = append(s.deferred, deferredCheck{origin: m.From, forTxn: p.ForTxn, item: item})
				}
			}
			if resp.Resolved > 0 {
				s.Send(m.From, resp)
			}

		case *depResp:
			if pw, exists := s.pending[p.ForTxn]; exists {
				pw.remaining -= p.Resolved
				pw.oldReaders = append(pw.oldReaders, p.OldReaders...)
				if pw.remaining <= 0 {
					s.finishWrite(p.ForTxn)
				}
			}

		case *writeResp:
			// A self-addressed ack can't happen; ignore defensively.

		default:
			panic(fmt.Sprintf("copssnow: server %s got %T", s.ID(), m.Payload))
		}
	}

	// Retry deferred dependency checks: new versions may have become
	// visible during this step.
	if len(s.deferred) > 0 {
		var still []deferredCheck
		resp := make(map[sim.ProcessID]*depResp)
		for _, dc := range s.deferred {
			olds, resolved := s.resolveCheck(dc.item)
			if !resolved {
				still = append(still, dc)
				continue
			}
			if dc.origin == s.ID() {
				// Local deferral: credit the pending write directly.
				if pw, exists := s.pending[dc.forTxn]; exists {
					pw.remaining--
					pw.oldReaders = append(pw.oldReaders, olds...)
					if pw.remaining <= 0 {
						s.finishWrite(dc.forTxn)
					}
				}
				continue
			}
			r := resp[dc.origin]
			if r == nil {
				r = &depResp{ForTxn: dc.forTxn}
				resp[dc.origin] = r
			}
			r.Resolved++
			r.OldReaders = append(r.OldReaders, olds...)
		}
		s.deferred = still
		origins := make([]sim.ProcessID, 0, len(resp))
		for o := range resp {
			origins = append(origins, o)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		for _, o := range origins {
			s.Send(o, resp[o])
		}
	}
	return s.Sent()
}

// --- client ---

type client struct {
	protocol.Core
	deps map[string]model.ValueRef // latest observed value per object
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), deps: make(map[string]model.ValueRef, len(c.deps))}
	for k, v := range c.deps {
		cp.deps[k] = v
	}
	return cp
}

func (c *client) depList() []model.ValueRef {
	objs := make([]string, 0, len(c.deps))
	for o := range c.deps {
		objs = append(objs, o)
	}
	sort.Strings(objs)
	out := make([]model.ValueRef, 0, len(objs))
	for _, o := range objs {
		if c.deps[o].Writer.IsZero() {
			continue // initial values carry no dependency
		}
		out = append(out, c.deps[o])
	}
	return out
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if c.Reply(p) {
				for _, vr := range p.Vals {
					c.Result().SetValue(vr.Object, vr.Value)
					if vr.Value != model.Bottom {
						c.deps[vr.Object] = vr
					}
				}
			}
		case *writeResp:
			c.Reply(p)
		}
	}
	if c.Starting(now) {
		t := c.Current()
		pl := c.Placement()
		if t.IsReadOnly() {
			for _, sh := range pl.ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items})
			}
		} else {
			w := t.Writes[len(t.Writes)-1]
			c.Send(pl.PrimaryOf(w.Object), &writeReq{TID: t.ID, W: w, Deps: c.depList()})
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		// A completed write becomes its own dependency.
		for _, w := range t.Writes {
			c.deps[w.Object] = model.ValueRef{Object: w.Object, Value: w.Value, Writer: t.ID}
		}
		c.Finish(now)
	}
	return c.Sent()
}
