package protocol_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/fatcops"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/ramp"
	"repro/internal/protocols/spanner"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestPeerTransferCarriesMeta replaces every server of a replicated
// deployment with its disk gone, so the replacement holds only what its
// live peers transfer. The three models whose reads serve per-version
// metadata must get it with every transferred version: each one's Meta
// deep-equals that of the version it was copied from.
func TestPeerTransferCarriesMeta(t *testing.T) {
	for _, p := range []protocol.Protocol{cops.New(), fatcops.New(), ramp.New()} {
		t.Run(p.Name(), func(t *testing.T) {
			d := protocol.Deploy(p, protocol.Config{Servers: 4, ObjectsPerServer: 2, Replication: 2, Clients: 2, Seed: 3})
			if err := d.InitAll(200_000); err != nil {
				t.Fatal(err)
			}
			objs := d.Place.Objects()
			for i, obj := range objs {
				d.RunTxn(d.Clients[i%2], model.NewWriteOnly(model.TxnID{},
					model.Write{Object: obj, Value: model.Value(fmt.Sprint("w", i))}), 200_000)
			}
			// cops refuses this one; the others install it with a write set.
			d.RunTxn(d.Clients[0], model.NewWriteOnly(model.TxnID{},
				model.Write{Object: objs[0], Value: "m0"}, model.Write{Object: objs[len(objs)-1], Value: "m1"}), 200_000)
			d.Settle(200_000)

			total := 0
			for _, sid := range d.Place.Servers() {
				repl, st := d.AdoptShard(d.Kernel, sid, d.Kernel.Process(sid), true)
				rs := repl.(protocol.StoreCarrier).ShardStore()
				n := 0
				for _, obj := range rs.Objects() {
					for _, v := range rs.Versions(obj) {
						n++
						src := sourceOf(d, sid, obj, v.Writer)
						if src == nil {
							t.Fatalf("%s: %s by %s came from no peer", sid, obj, v.Writer)
						}
						if !reflect.DeepEqual(v.Meta, src.Meta) {
							t.Fatalf("%s: %s by %s transferred with Meta %#v, the peer's is %#v", sid, obj, v.Writer, v.Meta, src.Meta)
						}
					}
				}
				if n != st.Peer {
					t.Fatalf("%s: replacement holds %d versions, %d reported transferred", sid, n, st.Peer)
				}
				total += n
			}
			if total == 0 {
				t.Fatal("no replacement got a version from its peers")
			}
		})
	}
}

// sourceOf returns obj's version by writer at the first other server
// hosting obj that has it, in the sorted order the transfer visits them.
func sourceOf(d *protocol.Deployment, sid sim.ProcessID, obj string, writer model.TxnID) *store.Version {
	for _, peer := range d.Place.Servers() {
		if peer == sid || !d.Place.Hosts(peer, obj) {
			continue
		}
		if v := d.Kernel.Process(peer).(protocol.StoreCarrier).ShardStore().Find(obj, writer); v != nil {
			return v
		}
	}
	return nil
}

// TestPruneInvisibleToCatchUp runs the same writes on a deployment that
// prunes and on a twin whose stores keep every version, then replaces
// every server of each with its disk kept. The replacements must report
// the same SyncStats and serve the same newest versions, each read the
// model's way: install order for naivefast, stamp order for spanner. At replication 1
// the pruned stores hold fewer versions than they installed; at
// replication 2 they drop none, as catch-up compares writers with peers.
func TestPruneInvisibleToCatchUp(t *testing.T) {
	for _, m := range []struct {
		p    protocol.Protocol
		read func(*store.Store, string) *store.Version
	}{{naivefast.New(), (*store.Store).LatestVisible}, {spanner.New(), (*store.Store).LatestVisibleByStamp}} {
		p, read := m.p, m.read
		for _, repl := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/r%d", p.Name(), repl), func(t *testing.T) {
				cfg := protocol.Config{Servers: 3, ObjectsPerServer: 2, Replication: repl, Clients: 2, Seed: 5}
				d, twin := protocol.Deploy(p, cfg), protocol.Deploy(p, cfg)
				for _, sid := range twin.Place.Servers() {
					twin.Kernel.Process(sid).(protocol.StoreCarrier).ShardStore().Horizon = store.Horizon{}
				}
				objs := d.Place.Objects()
				for _, dd := range []*protocol.Deployment{d, twin} {
					if err := dd.InitAll(200_000); err != nil {
						t.Fatal(err)
					}
					for i := range 24 {
						dd.RunTxn(dd.Clients[i%2], model.NewWriteOnly(model.TxnID{},
							model.Write{Object: objs[i%len(objs)], Value: model.Value(fmt.Sprint("w", i))}), 200_000)
						dd.Settle(200_000)
						if dd == d {
							d.Prune(d.Kernel.Now())
						}
					}
				}
				held, installed := 0, 0
				for _, sid := range d.Place.Servers() {
					got, gs := d.AdoptShard(d.Kernel, sid, d.Kernel.Process(sid), false)
					want, ws := twin.AdoptShard(twin.Kernel, sid, twin.Kernel.Process(sid), false)
					if gs != ws {
						t.Fatalf("%s: catch-up %+v, the unpruned twin's %+v", sid, gs, ws)
					}
					g, w := got.(protocol.StoreCarrier).ShardStore(), want.(protocol.StoreCarrier).ShardStore()
					for _, obj := range g.Objects() {
						if a, b := read(g, obj), read(w, obj); a.Writer != b.Writer || a.Value != b.Value {
							t.Fatalf("%s: %s serves %v, the unpruned twin %v", sid, obj, a, b)
						}
						held += len(g.Versions(obj))
						installed += g.Installed(obj)
					}
				}
				if dropped := held < installed; dropped != (repl == 1) {
					t.Fatalf("replication %d: pruned stores hold %d of %d versions installed", repl, held, installed)
				}
			})
		}
	}
}
