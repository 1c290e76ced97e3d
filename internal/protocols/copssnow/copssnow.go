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

// depCheck asks the server storing a dependency to confirm it is visible
// and to report the read-only transactions that read an older version.
type depCheck struct {
	protocol.Msg // the writing transaction
	Items        []model.ValueRef
}

func (p *depCheck) Kind() string { return "dep-check" }

type depResp struct {
	protocol.Msg
	Resolved   int
	OldReaders []model.TxnID
}

func (p *depResp) Kind() string { return "dep-resp" }

// --- server ---

// readerRec is the latest ROT of one client that read an object here.
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

type server struct {
	protocol.ServerCore
	readers map[string][]readerRec
	pending map[model.TxnID]*pendingWrite
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
	return c
}

// recordRead notes that rot read version seq of obj. A client runs one
// transaction at a time, so rot's read means every earlier ROT of its
// client has finished and will read nothing more: hiding a version from
// one is moot, and rot's record replaces the client's instead of growing
// the list (DESIGN.md, "copssnow: one reader record per client").
func (s *server) recordRead(obj string, rot model.TxnID, seq int64) {
	recs := s.readers[obj]
	for i := range recs {
		if recs[i].rot.Client == rot.Client {
			recs[i] = readerRec{rot: rot, seq: seq}
			return
		}
	}
	s.readers[obj] = append(recs, readerRec{rot: rot, seq: seq})
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

// resolveCheck tries to answer one dependency item; ok=false means a lossy
// fault destroyed the version, which was installed visible here before
// its client saw it. Nothing reinstalls it, so the check never resolves
// later and the write that depends on it stays pending (DESIGN.md,
// "copssnow: a dependency check never waits").
func (s *server) resolveCheck(item model.ValueRef) ([]model.TxnID, bool) {
	v := s.ShardStore().Find(item.Object, item.Writer)
	if v == nil || !v.Visible {
		return nil, false
	}
	return s.oldReadersOf(item.Object, v.Seq), true
}

// finishWrite installs the pending write visibly, hidden from old readers,
// and acknowledges it. The version's Meta is the set of ROTs it is hidden
// from.
func (s *server) finishWrite(tid model.TxnID) {
	pw := s.pending[tid]
	delete(s.pending, tid)
	hidden := make(map[model.TxnID]bool, len(pw.oldReaders))
	for _, r := range pw.oldReaders {
		hidden[r] = true
	}
	s.ShardStore().Install(&store.Version{
		Object: pw.w.Object, Value: pw.w.Value, Writer: tid,
		Visible: true, Meta: hidden,
	})
	s.Send(pw.client, &protocol.WriteAck[struct{}]{Msg: protocol.Msg{TID: tid}})
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.Read[struct{}]:
			resp := protocol.ReplyTo[struct{}](p)
			servable := func(v *store.Version) bool {
				hidden, _ := v.Meta.(map[model.TxnID]bool)
				return v.Visible && !hidden[p.TID]
			}
			for _, obj := range p.Objs {
				v := s.ShardStore().Latest(obj, servable)
				var seq int64
				if v != nil {
					seq = v.Seq
				}
				resp.Add(obj, v, struct{}{})
				s.recordRead(obj, p.TID, seq)
			}
			s.Send(m.From, resp)

		case *protocol.Write[[]model.ValueRef]:
			pw := &pendingWrite{w: p.Writes[0], client: m.From}
			s.pending[p.TID] = pw
			// Partition dependencies: local ones resolve now; remote ones
			// are batched per owning server.
			remote := make(map[sim.ProcessID][]model.ValueRef)
			for _, dep := range p.Dep {
				owner := s.Placement().PrimaryOf(dep.Object)
				if owner == s.ID() {
					if olds, resolved := s.resolveCheck(dep); resolved {
						pw.oldReaders = append(pw.oldReaders, olds...)
					} else {
						pw.remaining++
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
				s.Send(o, &depCheck{Msg: p.Msg, Items: remote[o]})
			}
			if pw.remaining == 0 {
				s.finishWrite(p.TID)
			}

		case *depCheck:
			resp := &depResp{Msg: p.Msg}
			for _, item := range p.Items {
				if olds, resolved := s.resolveCheck(item); resolved {
					resp.Resolved++
					resp.OldReaders = append(resp.OldReaders, olds...)
				}
			}
			if resp.Resolved > 0 {
				s.Send(m.From, resp)
			}

		case *depResp:
			if pw, exists := s.pending[p.TID]; exists {
				pw.remaining -= p.Resolved
				pw.oldReaders = append(pw.oldReaders, p.OldReaders...)
				if pw.remaining <= 0 {
					s.finishWrite(p.TID)
				}
			}

		default:
			panic(fmt.Sprintf("copssnow: server %s got %T", s.ID(), m.Payload))
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
		case *protocol.ReadReply[struct{}]:
			if c.Reply(p) {
				p.Fill(&c.Core)
				for _, v := range p.Vals {
					if v.Ref.Value != model.Bottom {
						c.deps[v.Ref.Object] = v.Ref
					}
				}
			}
		case *protocol.WriteAck[struct{}]:
			c.Reply(p)
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			protocol.SendReads(&c.Core, struct{}{})
		} else {
			protocol.SendPrimaryWrite(&c.Core, c.depList())
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
