package protocol

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// refShares is the grouping every model used to spell out for itself —
// bucket into a map, collect the keys, sort them — kept as the reference
// ReadShares and WriteShares are checked against.
func refShares[T any](items []T, servers func(T) []sim.ProcessID) []Share[T] {
	by := make(map[sim.ProcessID][]T)
	for _, it := range items {
		for _, srv := range servers(it) {
			by[srv] = append(by[srv], it)
		}
	}
	srvs := make([]sim.ProcessID, 0, len(by))
	for srv := range by {
		srvs = append(srvs, srv)
	}
	sort.Slice(srvs, func(i, j int) bool { return srvs[i] < srvs[j] })
	var out []Share[T]
	for _, srv := range srvs {
		out = append(out, Share[T]{Server: srv, Items: by[srv]})
	}
	return out
}

// checkShares compares got with the reference grouping and with the
// placement: same servers in the same order with the same items in the
// same order, a subsequence of Servers(), and never an empty share. The
// shares' items share backing arrays, so each must be capped at its
// length.
func checkShares[T comparable](t *testing.T, name string, pl *Placement, got, want []Share[T]) {
	t.Helper()
	if !slices.EqualFunc(got, want, func(g, w Share[T]) bool {
		return g.Server == w.Server && slices.Equal(g.Items, w.Items)
	}) {
		t.Fatalf("%s:\n got %v\nwant %v", name, got, want)
	}
	order := pl.Servers()
	for _, sh := range got {
		if len(sh.Items) == 0 {
			t.Fatalf("%s: empty share for %s", name, sh.Server)
		}
		at := slices.Index(order, sh.Server)
		if at < 0 {
			t.Fatalf("%s: %s out of Servers() order %v in %v", name, sh.Server, pl.Servers(), got)
		}
		order = order[at+1:]
		if cap(sh.Items) != len(sh.Items) {
			t.Fatalf("%s: %s's share has capacity %d past its %d items", name, sh.Server, cap(sh.Items), len(sh.Items))
		}
	}
}

// TestSharesMatchMapAndSort runs the differential on seeded random
// placements (up to 16 servers, so s10..s15 sort before s2) and random
// read and write sets with repeats, then on a read set of 16 objects.
func TestSharesMatchMapAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 400; trial++ {
		nSrv := 1 + rng.Intn(16)
		repl := 1 + rng.Intn(3)
		pl := Replicated(nSrv, nSrv*(1+rng.Intn(3)), repl)
		objs := pl.Objects()
		var reads []string
		var writes []model.Write
		for i, n := 0, rng.Intn(9); i < n; i++ {
			reads = append(reads, objs[rng.Intn(len(objs))])
		}
		for i, n := 0, rng.Intn(9); i < n; i++ {
			writes = append(writes, model.Write{Object: objs[rng.Intn(len(objs))], Value: model.Value(fmt.Sprint("v", i))})
		}
		name := fmt.Sprintf("trial %d (%d servers, replication %d)", trial, nSrv, repl)
		checkReadShares(t, fmt.Sprintf("%s: ReadShares(%v)", name, reads), pl, reads)
		checkShares(t, fmt.Sprintf("%s: WriteShares(%v)", name, writes), pl, pl.WriteShares(writes),
			refShares(writes, func(w model.Write) []sim.ProcessID { return pl.ReplicasOf(w.Object) }))
	}
	pl := Replicated(4, 16, 2)
	checkReadShares(t, "all 16 objects", pl, pl.Objects())
}

// checkReadShares checks ReadShares into no buffer and over a used one,
// and that a share whose objects are adjacent in reads is a slice of it.
func checkReadShares(t *testing.T, name string, pl *Placement, reads []string) {
	t.Helper()
	want := refShares(reads, func(o string) []sim.ProcessID { return []sim.ProcessID{pl.PrimaryOf(o)} })
	checkShares(t, name, pl, pl.ReadShares(nil, reads), want)
	used := pl.ReadShares(nil, pl.Objects())
	got := pl.ReadShares(used, reads)
	checkShares(t, name+" over a used buffer", pl, got, want)
	for _, sh := range got {
		at := slices.Index(reads, sh.Items[0])
		if end := at + len(sh.Items); end <= len(reads) && slices.Equal(reads[at:end], sh.Items) &&
			&reads[at] != &sh.Items[0] {
			t.Fatalf("%s: %s's adjacent objects %v copied", name, sh.Server, sh.Items)
		}
	}
}
