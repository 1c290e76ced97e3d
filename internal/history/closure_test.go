package history

import (
	"fmt"
	"slices"
	"testing"
)

// closureOracle drives one orderClosure through the operations the
// session and the solver perform — node appends with row widening, edge
// inserts, retirement, clone/copyFrom snapshots — and after each checks
// every succ/pred row against plain reachability over the accepted edges.
type closureOracle struct {
	t     testing.TB
	c     *orderClosure
	words int
	out   [][]int // accepted edges, by tail
	op    string  // the operation being checked, for failure messages
	// Inserts by the addEdge branch the closure state selects: fresh b
	// (no successors), source a (no predecessors), general, and refused.
	fresh, source, general, refused int
}

func newClosureOracle(t testing.TB, nodes int) *closureOracle {
	o := &closureOracle{t: t, c: &orderClosure{}, words: 1}
	for i := 0; i < nodes; i++ {
		o.addNode()
	}
	return o
}

// addNode appends a node, widening every row by one word when the slot
// capacity is exhausted (so rows cross word boundaries as they grow).
func (o *closureOracle) addNode() int {
	o.op = "addNode"
	if len(o.c.succ) == o.words*64 {
		o.words++
		o.c.growWords(o.words)
	}
	o.out = append(o.out, nil)
	return o.c.addNode(o.words)
}

// reach returns, for every node, the set of nodes reachable from it by
// one or more accepted edges.
func (o *closureOracle) reach() [][]bool {
	n := len(o.out)
	r := make([][]bool, n)
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		stack := slices.Clone(o.out[s])
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, o.out[x]...)
		}
		r[s] = seen
	}
	return r
}

// check compares every row of c with reachability over the accepted edges.
func (o *closureOracle) check(c *orderClosure) {
	o.t.Helper()
	n := len(o.out)
	if len(c.succ) != n || len(c.pred) != n {
		o.t.Fatalf("%s: closure has %d/%d rows, oracle %d nodes", o.op, len(c.succ), len(c.pred), n)
	}
	r := o.reach()
	for i := 0; i < n; i++ {
		succ, pred := make(bitset, len(c.succ[i])), make(bitset, len(c.pred[i]))
		for j := 0; j < n; j++ {
			if r[i][j] {
				succ.set(j)
			}
			if r[j][i] {
				pred.set(j)
			}
		}
		if !slices.Equal(c.succ[i], succ) {
			o.t.Fatalf("%s: succ[%d] = %v, reachability %v", o.op, i, c.succ[i], succ)
		}
		if !slices.Equal(c.pred[i], pred) {
			o.t.Fatalf("%s: pred[%d] = %v, reachability %v", o.op, i, c.pred[i], pred)
		}
	}
}

// edge inserts a→b. The closure must accept it exactly when b does not
// already reach a; a refused edge must leave every row as it was.
func (o *closureOracle) edge(a, b int) {
	o.t.Helper()
	o.op = fmt.Sprintf("edge %d→%d", a, b)
	want := a != b && !o.reach()[b][a]
	switch {
	case !want:
		o.refused++
	case o.c.succ[b].empty():
		o.fresh++
	case o.c.pred[a].empty():
		o.source++
	default:
		o.general++
	}
	before := o.c.clone()
	if got := o.c.addEdge(a, b); got != want {
		o.t.Fatalf("%s: addEdge = %v, reachability says %v", o.op, got, want)
	}
	if !want {
		for i := range before.succ {
			if !slices.Equal(o.c.succ[i], before.succ[i]) || !slices.Equal(o.c.pred[i], before.pred[i]) {
				o.t.Fatalf("%s: refused edge changed row %d", o.op, i)
			}
		}
		return
	}
	if !slices.Contains(o.out[a], b) {
		o.out[a] = append(o.out[a], b)
	}
	o.check(o.c)
}

// retire releases source t (nothing precedes it, the session's
// retirement precondition) and drops its edges.
func (o *closureOracle) retire(t int) {
	o.t.Helper()
	o.op = fmt.Sprintf("retire %d", t)
	o.c.retire(t)
	o.out[t] = nil
	o.check(o.c)
}

// branch snapshots the closure with clone, inserts edges, checks the
// snapshot was not written through, then restores it with copyFrom —
// the solver's search pattern.
func (o *closureOracle) branch(edges [][2]int) {
	o.t.Helper()
	saved := o.c.clone()
	savedOut := make([][]int, len(o.out))
	for i := range o.out {
		savedOut[i] = slices.Clone(o.out[i])
	}
	for _, e := range edges {
		o.edge(e[0], e[1])
	}
	o.out = savedOut
	o.op = "clone after branch"
	o.check(saved)
	o.c.copyFrom(saved)
	o.op = "copyFrom"
	o.check(o.c)
}

// extend checks extendClosure against the smallest-index-first linear
// extension of the accepted edges.
func (o *closureOracle) extend() {
	o.t.Helper()
	n := len(o.out)
	r := o.reach()
	placed := make([]bool, n)
	want := make([]int, 0, n)
	for len(want) < n {
		for i := 0; i < n; i++ {
			ready := !placed[i]
			for j := 0; ready && j < n; j++ {
				ready = placed[j] || !r[j][i]
			}
			if ready {
				placed[i] = true
				want = append(want, i)
				break
			}
		}
	}
	if got := extendClosure(o.c); !slices.Equal(got, want) {
		o.t.Fatalf("extendClosure = %v, smallest-index-first extension %v", got, want)
	}
}

// sinks, sources and ancestors read the oracle, not the closure.
func (o *closureOracle) sinks() []int {
	var out []int
	for i := range o.out {
		if len(o.out[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

func (o *closureOracle) sources() []int {
	r := o.reach()
	var out []int
	for i := range o.out {
		src := true
		for j := range o.out {
			src = src && !r[j][i]
		}
		if src {
			out = append(out, i)
		}
	}
	return out
}

// inner returns the nodes with a predecessor and those with a successor.
func (o *closureOracle) inner() (withPred, withSucc []int) {
	r := o.reach()
	for i := range o.out {
		if len(o.out[i]) > 0 {
			withSucc = append(withSucc, i)
		}
		if slices.ContainsFunc(r, func(row []bool) bool { return row[i] }) {
			withPred = append(withPred, i)
		}
	}
	return withPred, withSucc
}

func (o *closureOracle) ancestors(i int) []int {
	r := o.reach()
	var out []int
	for j := range o.out {
		if r[j][i] {
			out = append(out, j)
		}
	}
	return out
}

// TestOrderClosureMatchesReachability: after every insert each succ/pred
// row of the transitively closed order equals reachability over the
// accepted edges, refusals (self-loops and cycles) leave it untouched,
// and node appends, row widening, retirement, clone/copyFrom snapshots
// and the linear extension keep agreeing — at sizes on both sides of the
// word boundaries, with inputs that reach every addEdge branch.
func TestOrderClosureMatchesReachability(t *testing.T) {
	for _, n := range []int{5, 64, 65, 130} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				rng := genRNG(seed*7919 + int64(n))
				o := newClosureOracle(t, min(n, 3))
				pick := func(from []int) int { return from[rng.next(len(from))] }
				edgeFor := func() [2]int {
					m := len(o.out)
					switch k := rng.next(9); {
					case k < 2: // into a node with no successors yet
						return [2]int{rng.next(m), pick(o.sinks())}
					case k < 4: // out of a node with no predecessors
						return [2]int{pick(o.sources()), rng.next(m)}
					case k < 5: // closing a cycle (or a self-loop)
						a := rng.next(m)
						return [2]int{a, pick(append(o.ancestors(a), a))}
					case k < 6: // between nodes with a predecessor and a successor
						inner, outer := o.inner()
						if len(inner) > 0 && len(outer) > 0 {
							return [2]int{pick(inner), pick(outer)}
						}
						return [2]int{rng.next(m), rng.next(m)}
					default:
						a, b := rng.next(m), rng.next(m)
						if a > b && rng.next(3) > 0 {
							a, b = b, a
						}
						return [2]int{a, b}
					}
				}
				for step := 0; step < 6*n; step++ {
					switch k := rng.next(20); {
					case k < 3 && len(o.out) < n:
						o.addNode()
						o.check(o.c)
					case k == 3:
						o.retire(pick(o.sources()))
					case k == 4:
						edges := make([][2]int, 1+rng.next(4))
						for i := range edges {
							edges[i] = edgeFor()
						}
						o.branch(edges)
					case k == 5:
						o.extend()
					default:
						e := edgeFor()
						o.edge(e[0], e[1])
					}
				}
				for len(o.out) < n {
					o.addNode()
				}
				for i := 0; i < 2*n; i++ {
					e := edgeFor()
					o.edge(e[0], e[1])
				}
				o.extend()
				if o.fresh == 0 || o.source == 0 || o.general == 0 || o.refused == 0 {
					t.Fatalf("branches not all reached: fresh %d, source %d, general %d, refused %d",
						o.fresh, o.source, o.general, o.refused)
				}
			})
		}
	}
}

// deferredTwin applies every operation to an eager closure and to one
// deferring its successor columns. After each, the deferred closure must
// answer every has query, refuse the same edges and hold the same pred
// rows; its succ rows may lack only deferred columns, and once flushed
// they must equal the eager rows.
type deferredTwin struct {
	t         testing.TB
	e, d      *orderClosure
	words     int
	op        string
	autoFlush int // inserts that reached 64 deferred columns and flushed
}

func newDeferredTwin(t testing.TB, nodes int) *deferredTwin {
	tw := &deferredTwin{t: t, e: &orderClosure{}, d: &orderClosure{}, words: 1}
	tw.d.deferColumns()
	for i := 0; i < nodes; i++ {
		tw.addNode()
	}
	return tw
}

func (tw *deferredTwin) addNode() {
	tw.op = "addNode"
	if len(tw.e.succ) == tw.words*64 {
		tw.words++
		tw.e.growWords(tw.words)
		tw.d.growWords(tw.words)
	}
	tw.e.addNode(tw.words)
	tw.d.addNode(tw.words)
	tw.compare(tw.e, tw.d)
}

func (tw *deferredTwin) compare(e, d *orderClosure) {
	tw.t.Helper()
	if d.nLazy != d.lazy.count() {
		tw.t.Fatalf("%s: nLazy %d, %d columns deferred", tw.op, d.nLazy, d.lazy.count())
	}
	for i := range e.succ {
		if !slices.Equal(d.pred[i], e.pred[i]) {
			tw.t.Fatalf("%s: deferred pred[%d] = %v, eager %v", tw.op, i, d.pred[i], e.pred[i])
		}
		if !e.succ[i].containsAll(d.succ[i]) {
			tw.t.Fatalf("%s: deferred succ[%d] = %v holds more than eager %v", tw.op, i, d.succ[i], e.succ[i])
		}
		for w := range e.succ[i] {
			if e.succ[i][w]&^d.lazy[w]&^d.succ[i][w] != 0 {
				tw.t.Fatalf("%s: deferred succ[%d] = %v lacks an undeferred bit of %v", tw.op, i, d.succ[i], e.succ[i])
			}
		}
		if d.succ[i].empty() != e.succ[i].empty() {
			tw.t.Fatalf("%s: succ[%d] empty %v deferred, %v eager", tw.op, i, d.succ[i].empty(), e.succ[i].empty())
		}
		for j := range e.succ {
			if d.has(i, j) != e.succ[i].has(j) {
				tw.t.Fatalf("%s: has(%d, %d) = %v deferred, %v eager", tw.op, i, j, d.has(i, j), e.succ[i].has(j))
			}
		}
	}
}

func (tw *deferredTwin) edge(a, b int) {
	tw.t.Helper()
	tw.op = fmt.Sprintf("edge %d→%d", a, b)
	full := tw.d.nLazy == 63
	ge, gd := tw.e.addEdge(a, b), tw.d.addEdge(a, b)
	if ge != gd {
		tw.t.Fatalf("%s: addEdge = %v deferred, %v eager", tw.op, gd, ge)
	}
	if full && tw.d.nLazy == 0 {
		tw.autoFlush++
	}
	tw.compare(tw.e, tw.d)
}

func (tw *deferredTwin) retire(t int) {
	tw.t.Helper()
	tw.op = fmt.Sprintf("retire %d", t)
	tw.e.retire(t)
	tw.d.retire(t)
	tw.compare(tw.e, tw.d)
}

func (tw *deferredTwin) branch(edges [][2]int) {
	tw.t.Helper()
	se, sd := tw.e.clone(), tw.d.clone()
	for _, e := range edges {
		tw.edge(e[0], e[1])
	}
	tw.op = "clone after branch"
	tw.compare(se, sd)
	tw.e.copyFrom(se)
	tw.d.copyFrom(sd)
	tw.op = "copyFrom"
	tw.compare(tw.e, tw.d)
}

// settle flushes the deferred closure: its rows must then be the eager
// ones, and so must its linear extension.
func (tw *deferredTwin) settle() {
	tw.t.Helper()
	if got, want := extendClosure(tw.d), extendClosure(tw.e); !slices.Equal(got, want) {
		tw.t.Fatalf("extendClosure = %v deferred, %v eager", got, want)
	}
	tw.op = "flush"
	if tw.d.nLazy != 0 {
		tw.t.Fatalf("%s: %d columns still deferred", tw.op, tw.d.nLazy)
	}
	for i := range tw.e.succ {
		if !slices.Equal(tw.d.succ[i], tw.e.succ[i]) {
			tw.t.Fatalf("%s: succ[%d] = %v, eager %v", tw.op, i, tw.d.succ[i], tw.e.succ[i])
		}
	}
}

// TestDeferredColumnsMatchEager drives the deferred closure through the
// operations TestOrderClosureMatchesReachability holds the eager one to
// — with far more successor-free heads, so that 64 columns wait and
// flush on their own — and compares the two after every step.
func TestDeferredColumnsMatchEager(t *testing.T) {
	for _, n := range []int{5, 64, 65, 130, 200} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				rng := genRNG(seed*6151 + int64(n))
				tw := newDeferredTwin(t, min(n, 3))
				m := func() int { return len(tw.e.succ) }
				pick := func(from []int) int { return from[rng.next(len(from))] }
				sinks := func() []int {
					var out []int
					for i, row := range tw.e.succ {
						if row.empty() {
							out = append(out, i)
						}
					}
					return out
				}
				sources := func() []int {
					var out []int
					for i, row := range tw.e.pred {
						if row.empty() {
							out = append(out, i)
						}
					}
					return out
				}
				edgeFor := func() [2]int {
					switch k := rng.next(8); {
					case k < 4: // into a node with no successors yet
						return [2]int{rng.next(m()), pick(sinks())}
					case k < 5: // out of a node with no predecessors
						return [2]int{pick(sources()), rng.next(m())}
					case k < 6: // closing a cycle (or a self-loop)
						a := rng.next(m())
						var anc []int
						tw.e.pred[a].forEach(func(x int) { anc = append(anc, x) })
						return [2]int{a, pick(append(anc, a))}
					default:
						a, b := rng.next(m()), rng.next(m())
						if a > b && rng.next(3) > 0 {
							a, b = b, a
						}
						return [2]int{a, b}
					}
				}
				for step := 0; step < 8*n; step++ {
					switch k := rng.next(40); {
					case k < 8 && m() < n:
						tw.addNode()
					case k == 8:
						tw.retire(pick(sources()))
					case k == 9:
						edges := make([][2]int, 1+rng.next(4))
						for i := range edges {
							edges[i] = edgeFor()
						}
						tw.branch(edges)
					case k == 10 && rng.next(8) == 0:
						tw.settle()
					default:
						e := edgeFor()
						tw.edge(e[0], e[1])
					}
				}
				tw.settle()
				if n >= 200 && tw.autoFlush == 0 {
					t.Fatal("64 deferred columns never waited at once")
				}
			})
		}
	}
}

// FuzzOrderClosure decodes bytes into closure operations and holds the
// closure to the reachability oracle after each, and a twin deferring
// its successor columns to the eager closure: the first byte sets the
// starting node count (1–130), then every op byte is followed by its
// arguments — an edge takes two node bytes, a branch a count and that
// many edges, a retirement a byte picking among the current sources.
func FuzzOrderClosure(f *testing.F) {
	f.Add([]byte{4, 4, 0, 1, 5, 1, 2, 6, 0, 2, 7, 2, 0, 3})
	f.Add([]byte{63, 0, 0, 4, 0, 63, 4, 63, 64, 4, 64, 0, 3, 1, 0, 3})
	f.Add([]byte{129, 2, 3, 0, 65, 65, 128, 128, 1, 4, 129, 0, 5, 1, 129, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		o := newClosureOracle(t, 1+int(data[0])%130)
		tw := newDeferredTwin(t, len(o.out))
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		node := func() int { return next() % len(o.out) }
		for len(data) > 0 {
			switch next() % 8 {
			case 0:
				if len(o.out) < 130 {
					o.addNode()
					o.check(o.c)
					tw.addNode()
				}
			case 1:
				src := o.sources()
				t := src[next()%len(src)]
				o.retire(t)
				tw.retire(t)
			case 2:
				edges := make([][2]int, 1+next()%4)
				for i := range edges {
					edges[i] = [2]int{node(), node()}
				}
				o.branch(edges)
				tw.branch(edges)
			case 3:
				o.extend()
				tw.settle()
			default:
				a, b := node(), node()
				o.edge(a, b)
				tw.edge(a, b)
			}
		}
	})
}
