//go:build benchtrace

package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// ---- sim: kernel + lookahead engine with zero protocol work ----------------

type echoPayload struct{ n int }

func (p *echoPayload) Kind() string       { return "echo" }
func (p *echoPayload) Clone() sim.Payload { c := *p; return &c }

// echoServer answers every message with the same payload.
type echoServer struct{ id sim.ProcessID }

func (s *echoServer) ID() sim.ProcessID  { return s.id }
func (s *echoServer) Ready() bool        { return false }
func (s *echoServer) Clone() sim.Process { c := *s; return &c }
func (s *echoServer) Step(_ sim.Time, inbox []*sim.Message) []sim.Outbound {
	out := make([]sim.Outbound, 0, len(inbox))
	for _, m := range inbox {
		out = append(out, sim.Outbound{To: m.From, Payload: m.Payload})
	}
	return out
}

// echoClient is a closed-loop client: one request outstanding, the next
// sent when the reply arrives, servers visited round-robin.
type echoClient struct {
	id      sim.ProcessID
	servers []sim.ProcessID
	left    int
	started bool
}

func (c *echoClient) ID() sim.ProcessID  { return c.id }
func (c *echoClient) Ready() bool        { return !c.started && c.left > 0 }
func (c *echoClient) Clone() sim.Process { d := *c; return &d }
func (c *echoClient) Step(_ sim.Time, inbox []*sim.Message) []sim.Outbound {
	if c.started && len(inbox) == 0 || c.left == 0 {
		return nil
	}
	c.started = true
	c.left--
	return []sim.Outbound{{To: c.servers[c.left%len(c.servers)], Payload: &echoPayload{n: c.left}}}
}

// echoRun drives 8 echo servers (one shard each) and 64 clients striped
// over them, the shape of the load cells, through the lookahead engine.
func (t *tracer) echoRun(workers int) (spanned, int) {
	const servers, clients, requests = 8, 64, 2000
	k := sim.NewKernel(t.seed, nil)
	k.SetLatencyFloor(500) // the default model is uniform [500, 1500] µs
	k.SetTraceCap(-1)
	k.SetPayloadRetention(false)
	shard := map[sim.ProcessID]int{}
	var sids []sim.ProcessID
	for i := 0; i < servers; i++ {
		id := sim.ProcessID(fmt.Sprintf("s%d", i))
		sids = append(sids, id)
		shard[id] = i
		k.Add(&echoServer{id: id})
	}
	for i := 0; i < clients; i++ {
		id := sim.ProcessID(fmt.Sprintf("c%d", i))
		shard[id] = i % servers
		k.Add(&echoClient{id: id, servers: sids, left: requests})
	}
	r, err := sim.NewLookaheadRunner(k, func(p sim.ProcessID) int { return shard[p] }, servers, workers)
	if err != nil {
		t.problems = append(t.problems, "echo: "+err.Error())
		return spanned{}, 1
	}
	events := 0
	s := t.span("ShardedRunner.Run", "sim", fmt.Sprintf("echo-w%d", workers), func() {
		events = r.Run(nil, 100_000_000)
	}, func() map[string]int64 { return map[string]int64{"events": int64(events)} })
	// Each request is a client step, a delivery, a server step and a
	// delivery back; the last reply is consumed by one more client step.
	if want := clients*requests*4 + clients; events != want {
		t.problems = append(t.problems, fmt.Sprintf("echo at workers %d executed %d events, want %d", workers, events, want))
	}
	return s, max(events, 1)
}

func (t *tracer) simLedger() {
	one, events := t.echoRun(1)
	t.set("sim.echo_ns_per_event_w1", float64(one.wall.Nanoseconds())/float64(events))
	t.set("sim.echo_allocs_per_event", float64(one.mallocs)/float64(events))
	two, events := t.echoRun(2)
	t.set("sim.echo_ns_per_event_w2", float64(two.wall.Nanoseconds())/float64(events))

	// Kernel.Snapshot of a deployed 8-server cell: what every staleness
	// probe and adversary construction clones.
	d := protocol.Deploy(core.ByName("cops"), protocol.Config{Servers: 8, ObjectsPerServer: 2, Clients: 64, Seed: t.seed})
	if err := d.InitAll(400_000); err != nil {
		t.problems = append(t.problems, "snapshot deploy: "+err.Error())
		return
	}
	const clones = 200
	snap := t.span("Kernel.Snapshot", "sim", "ledger", func() {
		for i := 0; i < clones; i++ {
			d.Kernel.Snapshot()
		}
	}, func() map[string]int64 { return map[string]int64{"snapshots": clones} })
	t.set("sim.snapshot_us", snap.Seconds()*1e6/clones)
}

// ---- store: version chains shorter and far longer than a cache line --------

func (t *tracer) storeLedger() {
	for _, depth := range []int{16, 4096} {
		// 64k timed calls per operation on the short chains; 16k on the
		// long ones, where one call already walks thousands of versions.
		chains := max(4, 65536/depth)
		objects := make([]string, chains)
		for i := range objects {
			objects[i] = fmt.Sprintf("X%d", i)
		}
		writer := func(i int) model.TxnID { return model.TxnID{Client: "w", Seq: i + 1} }
		ops := int64(chains * depth)
		per := func(s spanned) float64 { return float64(s.wall.Nanoseconds()) / float64(ops) }
		counts := func() map[string]int64 { return map[string]int64{"ops": ops} }
		suffix := fmt.Sprintf(".depth%d", depth)
		cell := "ledger" + suffix

		// Stamped chains in install order (COPS/Spanner style).
		st := store.New(objects...)
		t.set("store.install_ns"+suffix, per(t.span("Store.Install", "store", cell, func() {
			for _, o := range objects {
				for i := 0; i < depth; i++ {
					st.Install(&store.Version{Object: o, Value: "v", Writer: writer(i),
						Stamp: vclock.HLCStamp{Wall: int64(i)}, Visible: true})
				}
			}
		}, counts)))
		t.set("store.find_ns"+suffix, per(t.span("Store.Find", "store", cell, func() {
			for _, o := range objects {
				for i := 0; i < depth; i++ {
					if st.Find(o, writer(i)) == nil {
						t.problems = append(t.problems, "store.Find lost a version")
						return
					}
				}
			}
		}, counts)))
		t.set("store.snapshot_read_ns"+suffix, per(t.span("Store.SnapshotRead", "store", cell, func() {
			for _, o := range objects {
				for i := 0; i < depth; i++ {
					if st.SnapshotRead(o, vclock.HLCStamp{Wall: int64(i)}) == nil {
						t.problems = append(t.problems, "store.SnapshotRead found nothing")
						return
					}
				}
			}
		}, counts)))

		// Vectored chains in uniform order (Cure style): restamping a
		// prepared version to its commit vector, which keeps its place.
		vs := store.New(objects...)
		for _, o := range objects {
			for i := 0; i < depth; i++ {
				vs.InstallOrdered(&store.Version{Object: o, Value: "v", Writer: writer(i),
					Vec: vclock.Vector{int64(2 * i)}, Visible: true})
			}
		}
		t.set("store.restamp_ns"+suffix, per(t.span("Store.Restamp", "store", cell, func() {
			for _, o := range objects {
				for i := 0; i < depth; i++ {
					if vs.Restamp(o, writer(i), vclock.Vector{int64(2*i + 1)}) == nil {
						t.problems = append(t.problems, "store.Restamp lost a version")
						return
					}
				}
			}
		}, counts)))
	}
}
