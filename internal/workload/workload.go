// Package workload generates the transaction mixes of the experiments:
// read-dominated workloads over zipfian-skewed keys (the regimes the
// paper's introduction motivates: Facebook-style read-heavy traffic),
// parameterized by read fraction and write-transaction width, with the
// distinct-value discipline the checkers require.
package workload

import (
	"fmt"
	"math"
	"slices"

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

// pickObject samples an object by zipf rank.
func (g *Generator) pickObject() string {
	u := g.rng.Float64()
	for i, c := range g.weights {
		if u <= c {
			return g.objects[i]
		}
	}
	return g.objects[len(g.objects)-1]
}

// pickDistinct samples n distinct objects into one fresh slice.
func (g *Generator) pickDistinct(n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		if o := g.pickObject(); !slices.Contains(out, o) {
			out = append(out, o)
		}
	}
	return out
}

// Next produces the next transaction for the given client tag. Values are
// globally unique by construction.
func (g *Generator) Next(client string) *model.Txn {
	g.seq++
	if g.rng.Float64() < g.mix.ReadFraction {
		// The picks are distinct, so sorting them in place is the read
		// set model.NewReadOnly would build, without its copy.
		objs := g.pickDistinct(g.mix.ReadWidth)
		slices.Sort(objs)
		return &model.Txn{ReadSet: objs}
	}
	objs := g.pickDistinct(g.mix.WriteWidth)
	var writes []model.Write
	for _, o := range objs {
		writes = append(writes, model.Write{
			Object: o,
			Value:  model.Value(fmt.Sprintf("v-%s-%d-%s", client, g.seq, o)),
		})
	}
	return model.NewWriteOnly(model.TxnID{}, writes...)
}

// NextSingleWrite produces a single-object write (for no-WTX systems).
func (g *Generator) NextSingleWrite(client string) *model.Txn {
	g.seq++
	o := g.pickObject()
	return model.NewWriteOnly(model.TxnID{}, model.Write{
		Object: o,
		Value:  model.Value(fmt.Sprintf("v-%s-%d-%s", client, g.seq, o)),
	})
}
