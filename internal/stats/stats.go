// Package stats provides the summary statistics the latency experiments
// report: mean and percentiles over virtual-time samples.
package stats

import (
	"fmt"
	"maps"
	"slices"
)

// Summary is a one-pass description of a sample set.
type Summary struct {
	N             int
	Mean          float64
	Min, Max      int64
	P50, P90, P99 int64
}

// Collector accumulates samples as exact counts per value, so what it
// holds follows the range of the values, not their number.
type Collector struct {
	n   int
	sum int64
	// dense[v] counts value v, 0 ≤ v < len(dense) ≤ denseCap, modulo 1<<16
	// (two bytes a value: a short run holds fewer samples than its range
	// has values); sparse holds the rest: each 1<<16 that dense[v]
	// wrapped, and the counts of values outside dense's range.
	dense  []uint16
	sparse map[int64]int
}

// denseCap bounds dense: 64 K counters, latencies up to 65 ms of virtual
// µs. A value past it (a queue past saturation) is counted in sparse.
const denseCap = 1 << 16

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{sparse: map[int64]int{}} }

// Add records one sample.
func (c *Collector) Add(v int64) {
	c.n++
	c.sum += v
	if v < 0 || v >= denseCap {
		c.sparse[v]++
		return
	}
	if v >= int64(len(c.dense)) {
		grown := make([]uint16, min(denseCap, max(2*len(c.dense), int(v)+1)))
		copy(grown, c.dense)
		c.dense = grown
	}
	if c.dense[v]++; c.dense[v] == 0 {
		c.sparse[v] += 1 << 16
	}
}

// Summarize computes the summary: the value at rank ⌊p·(N−1)⌋ of the
// samples in ascending order is percentile p, Min at p = 0 and Max at
// p = 1, all found by one walk of the counts in value order.
func (c *Collector) Summarize() Summary {
	s := Summary{N: c.n}
	if s.N == 0 {
		return s
	}
	s.Mean = float64(c.sum) / float64(s.N)
	ps := [...]float64{0, 0.50, 0.90, 0.99, 1}
	at := [...]*int64{&s.Min, &s.P50, &s.P90, &s.P99, &s.Max}
	seen, next := 0, 0
	visit := func(v int64, k int) {
		seen += k
		for next < len(ps) && int(ps[next]*float64(s.N-1)) < seen {
			*at[next] = v
			next++
		}
	}
	// sparse's keys below 0 come first, then dense's values, each with
	// the wraps sparse holds for it, then the keys past dense.
	keys := slices.Sorted(maps.Keys(c.sparse))
	i := 0
	for ; i < len(keys) && keys[i] < 0; i++ {
		visit(keys[i], c.sparse[keys[i]])
	}
	for v, k := range c.dense {
		n := int(k)
		if i < len(keys) && keys[i] == int64(v) {
			n += c.sparse[keys[i]]
			i++
		}
		visit(int64(v), n)
	}
	for ; i < len(keys); i++ {
		visit(keys[i], c.sparse[keys[i]])
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p90=%d p99=%d min=%d max=%d",
		s.N, s.Mean, s.P50, s.P90, s.P99, s.Min, s.Max)
}
