package protocol_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/fatcops"
	"repro/internal/protocols/ramp"
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
