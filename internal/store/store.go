// Package store provides the per-server multi-version object store the
// protocol models build on. Each object holds an append-ordered version
// chain; versions carry the timestamps the various systems order by, the
// protocol's own metadata (Version.Meta) and an explicit visibility gate,
// which is how protocols such as Eiger or Spanner keep a
// written-but-not-yet-stable version from being served. A store keeps
// only what a read at or above its Horizon can return, so a version's Seq
// is its install count, not its place in the chain.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/vclock"
)

// Version is one installed version of an object. The store owns Seq,
// Visible, Stamp and Vec (Install, Commit*, Restamp change them). Meta is
// immutable once installed — a protocol sets it when it builds the version
// and only reads it after — so every copy of the version, store clones and
// peer transfers alike, shares the one instance.
type Version struct {
	Object string
	Value  model.Value
	Writer model.TxnID
	// Seq is the per-object install count (1-based), assigned by Install.
	Seq int64
	// Stamp is the protocol's logical timestamp for the version (HLC or
	// Lamport packed into an HLCStamp; zero when unused).
	Stamp vclock.HLCStamp
	// Vec is a vector timestamp (Cure-style; nil when unused).
	Vec vclock.Vector
	// Visible gates whether reads may return this version.
	Visible bool
	// Meta is the protocol's own per-version metadata (a dependency list,
	// a write set), nil when unused.
	Meta any
}

// Clone returns a copy of the version with its own vector; Meta is shared.
func (v *Version) Clone() *Version {
	c := *v
	if v.Vec != nil {
		c.Vec = v.Vec.Clone()
	}
	return &c
}

func (v *Version) String() string {
	vis := "hidden"
	if v.Visible {
		vis = "visible"
	}
	return fmt.Sprintf("%s=%s@%d(%s,%s)", v.Object, v.Value, v.Seq, v.Writer, vis)
}

// Store is a multi-version store for the objects one server hosts. Every
// change to a stored version's visibility, stamp or vector goes through
// the store (Install, Commit*, Restamp), which is what keeps
// each chain's indexes exact: there is no unindexed state to fall back
// from.
type Store struct {
	names   []string // hosted objects, sorted; fixed at New
	objects map[string]*chain
	// prepared lists, per writer, the versions installed invisible and
	// not yet committed: what Commit, CommitAt and CommitVec publish.
	prepared map[model.TxnID][]*Version
	Horizon  Horizon // the oldest point reads still ask for
	Below    int     // reads that asked below it
}

// A Horizon is Latest (reads return the newest visible version), a stamp
// At (SnapshotRead) or a shared vector Vec (SnapshotReadVec), zero to keep
// everything. When a chain changes, the store drops its visible versions
// older, in the version order (install order under Latest), than the one
// a read at the horizon returns, keeping every prepared version.
type Horizon struct {
	Latest bool
	At     vclock.HLCStamp
	Vec    vclock.Vector
}

// chain is one object's versions three ways: in install order (by Seq —
// arrival order is never rewritten, orbe's counters and every Latest
// reader rely on it), by writer, and — the visible ones only — sorted by
// the version order (stampCompare, top), which is the order every
// snapshot read selects by. seq counts the installs, dropped ones too.
type chain struct {
	versions []*Version
	byWriter map[model.TxnID]*Version
	visible  []*Version
	seq      int64
}

// New creates an empty store hosting the given objects.
func New(objects ...string) *Store {
	s := &Store{
		names:    append([]string(nil), objects...),
		objects:  make(map[string]*chain, len(objects)),
		prepared: make(map[model.TxnID][]*Version),
	}
	sort.Strings(s.names)
	for _, o := range objects {
		s.objects[o] = &chain{byWriter: make(map[model.TxnID]*Version)}
	}
	return s
}

// Objects returns the hosted object names, sorted (a copy).
func (s *Store) Objects() []string { return append([]string(nil), s.names...) }

// Hosts reports whether the store hosts obj.
func (s *Store) Hosts(obj string) bool {
	_, ok := s.objects[obj]
	return ok
}

// Install appends a version to obj's chain, assigning its Seq, and returns
// it. A visible version is indexed on the way in; an invisible one waits
// for its writer's Commit. It panics if the store does not host obj
// (placement bug).
func (s *Store) Install(v *Version) *Version {
	c, ok := s.objects[v.Object]
	if !ok {
		panic(fmt.Sprintf("store: install on unhosted object %s", v.Object))
	}
	c.versions = append(c.versions, v)
	c.seq++
	v.Seq = c.seq
	if _, dup := c.byWriter[v.Writer]; !dup {
		c.byWriter[v.Writer] = v
	}
	if v.Visible {
		c.place(v, -1)
		s.prune(c, v.Object)
	} else {
		s.prepared[v.Writer] = append(s.prepared[v.Writer], v)
	}
	return v
}

// Installed returns how many versions of obj the store has installed.
func (s *Store) Installed(obj string) int { return int(s.chainOf(obj).seq) }

// InstallOrdered is Install for the snapshot-by-vector protocols, whose
// place in the version order is their vector: it panics on a version
// without one.
func (s *Store) InstallOrdered(v *Version) *Version {
	if v.Vec == nil {
		panic(fmt.Sprintf("store: InstallOrdered of %s without a vector", v.Object))
	}
	return s.Install(v)
}

// Commit publishes every version writer prepared in this store, as stamped
// at prepare time, in O(writes of the transaction).
func (s *Store) Commit(writer model.TxnID) { s.commit(writer, func(*Version) {}) }

// CommitAt is Commit with the commit timestamp replacing the prepare-time
// stamp.
func (s *Store) CommitAt(writer model.TxnID, at vclock.HLCStamp) {
	s.commit(writer, func(v *Version) { v.Stamp = at })
}

// CommitVec is Commit with the commit vector replacing the prepare-time
// vector. Every version it publishes shares vec, as payloads share it:
// nobody may write into vec afterwards.
func (s *Store) CommitVec(writer model.TxnID, vec vclock.Vector) {
	s.commit(writer, func(v *Version) { v.Vec = vec })
}

func (s *Store) commit(writer model.TxnID, restamp func(*Version)) {
	for _, v := range s.prepared[writer] {
		c := s.objects[v.Object]
		i := c.position(v)
		restamp(v)
		c.place(v, i)
		s.prune(c, v.Object)
	}
	delete(s.prepared, writer)
}

// prune drops what no read at or above the horizon returns (Horizon).
func (s *Store) prune(c *chain, obj string) {
	keep, h := (*Version)(nil), s.Horizon
	switch {
	case h.Latest:
		keep = s.LatestVisible(obj)
	case h.Vec != nil:
		keep = s.SnapshotReadVec(obj, h.Vec)
	case h.At != vclock.HLCStamp{}:
		keep = s.SnapshotRead(obj, h.At)
	}
	gone := func(v *Version) bool { return v.Visible && v != keep && (h.Latest || stampCompare(v, keep) < 0) }
	if keep == nil || !slices.ContainsFunc(c.visible, gone) {
		return
	}
	c.visible = slices.DeleteFunc(c.visible, gone)
	c.versions = slices.DeleteFunc(c.versions, gone)
	clear(c.byWriter) // deletes would leave its table's size to the hash seed
	for _, v := range slices.Backward(c.versions) {
		c.byWriter[v.Writer] = v
	}
}

// chainOf returns obj's chain, an empty one if the store does not host obj.
func (s *Store) chainOf(obj string) *chain {
	if c := s.objects[obj]; c != nil {
		return c
	}
	return &chain{}
}

// Versions returns obj's version chain in install order (nil if unknown).
func (s *Store) Versions(obj string) []*Version { return s.chainOf(obj).versions }

// Restamp replaces the vector timestamp of obj's version by writer,
// keeping it in version order if it is visible. Returns the version, or
// nil if the writer has no version of obj.
func (s *Store) Restamp(obj string, writer model.TxnID, vec vclock.Vector) *Version {
	v := s.Find(obj, writer)
	if v == nil {
		return nil
	}
	c := s.objects[obj]
	i := c.position(v)
	v.Vec = vec
	if i >= 0 {
		c.settle(i)
	}
	return v
}

// Find returns the version of obj written by writer (the first, should it
// have installed several), or nil.
func (s *Store) Find(obj string, writer model.TxnID) *Version {
	return s.chainOf(obj).byWriter[writer]
}

// position returns v's place in the visible index, -1 if it is not
// visible. Call it before changing v's stamp or vector.
func (c *chain) position(v *Version) int {
	if !v.Visible {
		return -1
	}
	i := sort.Search(len(c.visible), func(i int) bool { return stampCompare(c.visible[i], v) >= 0 })
	for c.visible[i] != v { // somewhere among its equals
		i++
	}
	return i
}

// place makes v visible and puts it where the version order wants it; i
// is its position before its key changed (-1: not indexed yet).
func (c *chain) place(v *Version, i int) {
	if i < 0 {
		v.Visible = true
		c.visible = append(c.visible, v)
		i = len(c.visible) - 1
	}
	c.settle(i)
}

// settle shifts visible[i] to its place in the version order. Commits
// arrive mostly in order, so this is an append or a short shift near the
// tail; a chain nobody stamps (COPS-style, read by install order) is all
// equals and never shifts.
func (c *chain) settle(i int) {
	idx := c.visible
	for ; i > 0 && stampCompare(idx[i], idx[i-1]) < 0; i-- {
		idx[i], idx[i-1] = idx[i-1], idx[i]
	}
	for ; i < len(idx)-1 && stampCompare(idx[i+1], idx[i]) < 0; i++ {
		idx[i], idx[i+1] = idx[i+1], idx[i]
	}
}

// stampCompare is the version order up to its tie-break: stamp first, then
// vector (vectorless below vectored, Vector.Compare among vectored).
// Stamp-ordered protocols leave vectors nil and vector-ordered ones leave
// stamps zero, so each sees exactly its own order. The index is sorted by
// it; versions it calls equal sit together in no particular order.
func stampCompare(a, b *Version) int {
	if c := a.Stamp.Compare(b.Stamp); c != 0 {
		return c
	}
	switch {
	case a.Vec == nil && b.Vec == nil:
		return 0
	case a.Vec == nil:
		return -1
	case b.Vec == nil:
		return 1
	}
	return a.Vec.Compare(b.Vec)
}

// top completes the version order: of idx[i] and its equals to the left it
// returns the one with the largest writer ID. Every server breaks the tie
// the same way, so two servers serving the same snapshot agree on which of
// two concurrent transactions wins — keeping multi-object write
// transactions atomically visible.
func top(idx []*Version, i int) *Version {
	best := idx[i]
	for i--; i >= 0 && stampCompare(idx[i], best) == 0; i-- {
		if best.Writer.String() < idx[i].Writer.String() {
			best = idx[i]
		}
	}
	return best
}

// Latest returns the newest version of obj satisfying pred (nil pred
// accepts everything), or nil if none does. "Newest" is install order,
// which the protocols keep consistent with their timestamp order.
func (s *Store) Latest(obj string, pred func(*Version) bool) *Version {
	chain := s.Versions(obj)
	for i := len(chain) - 1; i >= 0; i-- {
		if pred == nil || pred(chain[i]) {
			return chain[i]
		}
	}
	return nil
}

// LatestVisible returns the newest visible version of obj, or nil.
func (s *Store) LatestVisible(obj string) *Version {
	return s.Latest(obj, func(v *Version) bool { return v.Visible })
}

// visible returns obj's visible versions in version order (nil if unknown).
func (s *Store) visible(obj string) []*Version { return s.chainOf(obj).visible }

// SnapshotReadVec returns the visible version of obj that is largest in
// the version order among those with Vec ≤ snap (versions without vectors
// are ≤ everything), or nil: the first covered one from the tail of the
// index, so the read costs O(versions above the snapshot), not O(chain).
func (s *Store) SnapshotReadVec(obj string, snap vclock.Vector) *Version {
	if s.Horizon.Vec != nil && !s.Horizon.Vec.LessEq(snap) {
		s.Below++
	}
	idx := s.visible(obj)
	for i := len(idx) - 1; i >= 0; i-- {
		if v := idx[i]; v.Vec == nil || v.Vec.LessEq(snap) {
			return top(idx, i)
		}
	}
	return nil
}

// SnapshotRead returns the visible version of obj that is largest in the
// version order among those with Stamp ≤ at, or nil — a binary search.
func (s *Store) SnapshotRead(obj string, at vclock.HLCStamp) *Version {
	if at.Before(s.Horizon.At) && s.Horizon.At != (vclock.HLCStamp{}) {
		s.Below++
	}
	idx := s.visible(obj)
	i := sort.Search(len(idx), func(i int) bool { return at.Before(idx[i].Stamp) })
	if i == 0 {
		return nil
	}
	return top(idx, i-1)
}

// LatestVisibleByStamp returns the visible version of obj that is largest
// in the version order, or nil. Protocols whose version order is timestamp
// order (not arrival order) read through this.
func (s *Store) LatestVisibleByStamp(obj string) *Version {
	idx := s.visible(obj)
	if len(idx) == 0 {
		return nil
	}
	return top(idx, len(idx)-1)
}

// Clone returns a copy of the store holding a Version.Clone of every
// version; the copy's indexes point at its own versions.
func (s *Store) Clone() *Store {
	c := &Store{
		names:    s.names,
		objects:  make(map[string]*chain, len(s.objects)),
		prepared: make(map[model.TxnID][]*Version, len(s.prepared)),
		Horizon:  s.Horizon,
		Below:    s.Below,
	}
	for o, ch := range s.objects {
		cp := &chain{
			versions: make([]*Version, len(ch.versions)),
			byWriter: make(map[model.TxnID]*Version, len(ch.byWriter)),
			visible:  make([]*Version, len(ch.visible)),
			seq:      ch.seq,
		}
		for i, v := range ch.versions {
			cp.versions[i] = v.Clone()
		}
		for w, v := range ch.byWriter {
			cp.byWriter[w] = cp.versions[ch.index(v)]
		}
		for i, v := range ch.visible {
			cp.visible[i] = cp.versions[ch.index(v)]
		}
		c.objects[o] = cp
	}
	for w, vs := range s.prepared {
		cvs := make([]*Version, len(vs))
		for i, v := range vs {
			cvs[i] = c.objects[v.Object].versions[s.objects[v.Object].index(v)]
		}
		c.prepared[w] = cvs
	}
	return c
}

// index returns v's place in the chain, which is in Seq order.
func (c *chain) index(v *Version) int {
	i, _ := slices.BinarySearchFunc(c.versions, v.Seq, func(x *Version, seq int64) int { return cmp.Compare(x.Seq, seq) })
	return i
}
