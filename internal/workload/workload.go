// Package workload generates the transaction mixes of the experiments:
// read-dominated workloads over zipfian-skewed keys (the regimes the
// paper's introduction motivates: Facebook-style read-heavy traffic),
// parameterized by read fraction and write-transaction width, with the
// distinct-value discipline the checkers require.
package workload

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/sim"
)

// Mix describes a workload.
type Mix struct {
	// ReadFraction is the fraction of read-only transactions (0..1).
	ReadFraction float64
	// ReadWidth is the number of objects per read-only transaction.
	ReadWidth int
	// WriteWidth is the number of objects per write transaction (1 for
	// single-object systems).
	WriteWidth int
	// ZipfS is the zipf skew parameter (0 = uniform).
	ZipfS float64
}

// ReadHeavy is the canonical 95/5 read-dominated mix.
func ReadHeavy() Mix { return Mix{ReadFraction: 0.95, ReadWidth: 2, WriteWidth: 2, ZipfS: 0.99} }

// Balanced is a 50/50 mix.
func Balanced() Mix { return Mix{ReadFraction: 0.5, ReadWidth: 2, WriteWidth: 2, ZipfS: 0.99} }

// Generator produces transactions for a fixed object universe.
type Generator struct {
	mix     Mix
	objects []string
	rng     *sim.RNG
	weights []float64 // zipf cumulative weights
	seq     int
}

// NewGenerator builds a generator over the given objects.
func NewGenerator(mix Mix, objects []string, seed int64) *Generator {
	if mix.ReadWidth <= 0 {
		mix.ReadWidth = 2
	}
	if mix.WriteWidth <= 0 {
		mix.WriteWidth = 1
	}
	if mix.ReadWidth > len(objects) {
		mix.ReadWidth = len(objects)
	}
	if mix.WriteWidth > len(objects) {
		mix.WriteWidth = len(objects)
	}
	g := &Generator{mix: mix, objects: objects, rng: sim.NewRNG(seed)}
	// Zipf cumulative distribution over object ranks.
	total := 0.0
	cum := make([]float64, len(objects))
	for i := range objects {
		w := 1.0
		if mix.ZipfS > 0 {
			w = 1.0 / math.Pow(float64(i+1), mix.ZipfS)
		}
		total += w
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	g.weights = cum
	return g
}

// pickObject samples an object by zipf rank: the first whose cumulative
// weight reaches the draw.
func (g *Generator) pickObject() string {
	i := sort.SearchFloat64s(g.weights, g.rng.Float64())
	return g.objects[min(i, len(g.objects)-1)]
}

// pickDistinct draws objects into the empty out until it holds n
// distinct ones, and returns it.
func (g *Generator) pickDistinct(out []string, n int) []string {
	for len(out) < n {
		if o := g.pickObject(); !slices.Contains(out, o) {
			out = append(out, o)
		}
	}
	return out
}

// value is the written value "v-<client>-<seq>-<obj>", built in one
// allocation. Values are globally unique by construction.
func (g *Generator) value(client, obj string) model.Value {
	var num [20]byte
	seq := strconv.AppendInt(num[:0], int64(g.seq), 10)
	var b strings.Builder
	b.Grow(4 + len(client) + len(seq) + len(obj))
	b.WriteString("v-")
	b.WriteString(client)
	b.WriteByte('-')
	b.Write(seq)
	b.WriteByte('-')
	b.WriteString(obj)
	return model.Value(b.String())
}

// Next produces the next transaction for the given client tag.
func (g *Generator) Next(client string) *model.Txn { return g.NextFor(client, true) }

// NextFor is Next for a system with or without multi-object write
// transactions. Without them a write comes out as Next followed by
// NextSingleWrite would give it: the same draws and sequence numbers,
// without building the discarded multi-object write.
func (g *Generator) NextFor(client string, multiWrite bool) *model.Txn {
	g.seq++
	if g.rng.Float64() < g.mix.ReadFraction {
		// The picks are distinct, so sorting them in place is the read
		// set model.NewReadOnly would build, without its copy. At both
		// mixes' width, two, it comes in one allocation with the
		// transaction.
		b := new(struct {
			t   model.Txn
			buf [2]string
		})
		b.t.ReadSet = g.pickDistinct(b.buf[:0], g.mix.ReadWidth)
		slices.Sort(b.t.ReadSet)
		return &b.t
	}
	// The write's objects are picked on the stack: without the claim
	// they only advance the RNG as Next's picks would.
	var small [8]string
	objs := g.pickDistinct(small[:0], g.mix.WriteWidth)
	if !multiWrite {
		return g.NextSingleWrite(client)
	}
	writes := make([]model.Write, len(objs))
	for i, o := range objs {
		writes[i] = model.Write{Object: o, Value: g.value(client, o)}
	}
	return &model.Txn{Writes: writes}
}

// NextSingleWrite produces a single-object write (for no-WTX systems).
func (g *Generator) NextSingleWrite(client string) *model.Txn {
	g.seq++
	o := g.pickObject()
	return &model.Txn{Writes: []model.Write{{Object: o, Value: g.value(client, o)}}}
}
