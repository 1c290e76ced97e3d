package protocol

import (
	"repro/internal/sim"
	"repro/internal/store"
)

// This file is the protocol half of the reconfiguration layer (the kernel
// half is sim.Kernel.ApplyFault's replace and restore): how a replacement
// server adopts a dead one's shard and catches its state up before
// serving. Deploy registers AdoptShard as every server's replacement
// hook, so the nemesis driver can schedule replica replacement and
// whole-cluster restore against any protocol in the zoo without
// per-protocol wiring.
//
// Catch-up is one store transfer: every version a live peer replica
// holds for a shared object that the replacement lacks is copied over,
// keyed by writer. A version carries its protocol's metadata
// (store.Version.Meta), so the copy serves like the original. The
// durable image counts the versions it installed (store.Store.Installed),
// dropped ones too; a store with peers drops none (Deployment.Prune).
//
// Under disjoint placement no peer shares an object with the dead server,
// so peer transfer is structurally empty — the durable image (the lose
// flag) is all there is, which is exactly why a lossy replacement of an
// unreplicated server is real data loss that certification must catch.

// StoreCarrier is implemented by servers whose durable state is a
// store.Store — every server, as each embeds ServerCore. Catch-up counts
// the versions a reattached durable image holds and transfers missing
// versions from live peers through it.
type StoreCarrier interface {
	ShardStore() *store.Store
}

// AdoptShard builds the process that replaces dead server sid: the
// replacement adopts the durable image (a full clone of old;
// factory-fresh when lose says the disk is gone), then catches up from
// every live peer replica in sorted server order: for each object it
// shares with the peer, in placement order, it adopts the versions it
// lacks, keyed by writer. Deterministic by construction — placement order
// and writer identity, never the RNG. Deploy installs it as the kernel
// replacement hook for every server; the kernel keeps the returned
// process down until the companion restart, so it never serves reads
// before it is caught up.
func (d *Deployment) AdoptShard(k *sim.Kernel, sid sim.ProcessID, old sim.Process, lose bool) (sim.Process, sim.SyncStats) {
	var repl sim.Process
	if lose {
		repl = d.Proto.NewServer(sid, d.Place)
	} else {
		repl = old.Clone()
	}
	dst := repl.(StoreCarrier).ShardStore()
	var st sim.SyncStats
	for _, obj := range dst.Objects() {
		st.Snapshot += dst.Installed(obj)
	}
	for _, peer := range d.Place.Servers() {
		if peer == sid || k.Down(peer) {
			continue
		}
		src := k.Process(peer).(StoreCarrier).ShardStore()
		for _, obj := range d.Place.Objects() {
			if !dst.Hosts(obj) || !src.Hosts(obj) {
				continue
			}
			for _, v := range src.Versions(obj) {
				if dst.Find(obj, v.Writer) == nil {
					dst.Install(v.Clone())
					st.Peer++
				}
			}
		}
	}
	return repl, st
}
