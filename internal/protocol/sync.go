package protocol

import (
	"repro/internal/sim"
	"repro/internal/store"
)

// This file is the protocol half of the reconfiguration layer (the kernel
// half is sim.Replace/sim.Restore): how a replacement server adopts a
// dead one's shard and catches its state up before serving. Deploy
// registers AdoptShard as every server's replacement hook, so the nemesis
// driver can schedule replica replacement and whole-cluster restore
// against any protocol in the zoo without per-protocol wiring.
//
// Catch-up has two tiers:
//
//   1. StoreCarrier — the store transfer: every version a live peer
//      replica holds for a shared object that the replacement lacks is
//      copied over, keyed by writer. A version carries its protocol's
//      metadata (store.Version.Meta), so the copy serves like the
//      original.
//   2. Neither — the replacement keeps whatever its durable image had
//      (a full clone of the dead server); peers transfer nothing.
//
// Under disjoint placement no peer shares an object with the dead server,
// so peer transfer is structurally empty — the durable image (tier: the
// lose flag) is all there is, which is exactly why a lossy replacement of
// an unreplicated server is real data loss that certification must catch.

// StoreCarrier is implemented by servers whose durable state is a
// store.Store — one line per protocol. It powers both halves of the
// catch-up: counting the versions a reattached durable image holds, and
// transferring missing versions from live peers.
type StoreCarrier interface {
	ShardStore() *store.Store
}

// AdoptShard builds the process that replaces dead server sid: the
// replacement adopts the durable image (a full clone of old;
// factory-fresh when lose says the disk is gone), then catches up from
// live peer replicas via SyncFrom. Deploy installs it as the kernel
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
	st := sim.SyncStats{Snapshot: storedVersions(repl)}
	st.Peer = d.SyncFrom(k, repl, sid)
	return repl, st
}

// SyncFrom catches the replacement for server sid up from every live peer
// replica, in sorted server order: for each object the dead server shared
// with the peer, the replacement adopts the versions it lacks. Returns the
// number of versions transferred. Deterministic
// by construction — placement order and writer identity, never the RNG.
func (d *Deployment) SyncFrom(k *sim.Kernel, repl sim.Process, sid sim.ProcessID) int {
	synced := 0
	for _, peer := range d.Place.Servers() {
		if peer == sid || k.Down(peer) {
			continue
		}
		shared := sharedObjects(d.Place, sid, peer)
		if len(shared) == 0 {
			continue
		}
		synced += copyMissingVersions(repl, k.Process(peer), shared)
	}
	return synced
}

// sharedObjects returns the objects hosted by both servers, in placement
// (sorted) order.
func sharedObjects(pl *Placement, a, b sim.ProcessID) []string {
	var out []string
	for _, obj := range pl.Objects() {
		if pl.Hosts(a, obj) && pl.Hosts(b, obj) {
			out = append(out, obj)
		}
	}
	return out
}

// copyMissingVersions is the peer transfer: every version src holds for
// objs that dst lacks (keyed by writer) is cloned into dst's store,
// preserving visibility, stamps, vectors and metadata. Returns the number
// of versions copied; 0 when either side does not expose its store.
func copyMissingVersions(dst, src sim.Process, objs []string) int {
	dc, ok := dst.(StoreCarrier)
	if !ok {
		return 0
	}
	sc, ok := src.(StoreCarrier)
	if !ok {
		return 0
	}
	ds, ss := dc.ShardStore(), sc.ShardStore()
	n := 0
	for _, obj := range objs {
		if !ds.Hosts(obj) || !ss.Hosts(obj) {
			continue
		}
		for _, v := range ss.Versions(obj) {
			if ds.Find(obj, v.Writer) == nil {
				ds.Install(v.Clone())
				n++
			}
		}
	}
	return n
}

// storedVersions counts the versions a process's durable store holds —
// the snapshot half of a replacement's sync accounting. 0 when the
// process does not expose its store.
func storedVersions(p sim.Process) int {
	sc, ok := p.(StoreCarrier)
	if !ok {
		return 0
	}
	st := sc.ShardStore()
	n := 0
	for _, obj := range st.Objects() {
		n += len(st.Versions(obj))
	}
	return n
}
