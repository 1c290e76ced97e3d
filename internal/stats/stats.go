// Package stats provides the summary statistics the latency experiments
// report: mean and percentiles over virtual-time samples.
package stats

import (
	"fmt"
	"slices"
)

// Summary is a one-pass description of a sample set.
type Summary struct {
	N             int
	Mean          float64
	Min, Max      int64
	P50, P90, P99 int64
}

// Collector accumulates samples.
type Collector struct {
	samples []int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add records one sample.
func (c *Collector) Add(v int64) { c.samples = append(c.samples, v) }

// N returns the number of samples.
func (c *Collector) N() int { return len(c.samples) }

// Summarize computes the summary.
func (c *Collector) Summarize() Summary {
	s := Summary{N: len(c.samples)}
	if s.N == 0 {
		return s
	}
	sorted := slices.Clone(c.samples)
	slices.Sort(sorted)
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	s.Mean = float64(sum) / float64(s.N)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	s.P50 = percentile(sorted, 0.50)
	s.P90 = percentile(sorted, 0.90)
	s.P99 = percentile(sorted, 0.99)
	return s
}

func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p90=%d p99=%d min=%d max=%d",
		s.N, s.Mean, s.P50, s.P90, s.P99, s.Min, s.Max)
}
