package stats

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	c := NewCollector()
	for i := int64(1); i <= 100; i++ {
		c.Add(i)
	}
	s := c.Summarize()
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean = %f", s.Mean)
	}
	if s.P50 < 45 || s.P50 > 55 {
		t.Fatalf("p50 = %d", s.P50)
	}
	if s.P99 < 95 {
		t.Fatalf("p99 = %d", s.P99)
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewCollector().Summarize()
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

// reference is the sort-based summary the counts replaced: every sample
// held and sorted, percentile p read at rank ⌊p·(N−1)⌋.
func reference(samples []int64) Summary {
	s := Summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	sorted := slices.Sorted(slices.Values(samples))
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	s.Mean = float64(sum) / float64(s.N)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	at := func(p float64) int64 { return sorted[int(p*float64(s.N-1))] }
	s.P50, s.P90, s.P99 = at(0.50), at(0.90), at(0.99)
	return s
}

// summarize adds samples to a new collector and summarizes it.
func summarize(samples []int64) Summary {
	c := NewCollector()
	for _, v := range samples {
		c.Add(v)
	}
	return c.Summarize()
}

// TestPercentilesOrdered holds every Summary field to the sort-based
// reference, on random sets whose values straddle 0 or denseCap and on
// the edge cases, and so the percentiles to Min ≤ P50 ≤ P90 ≤ P99 ≤ Max.
func TestPercentilesOrdered(t *testing.T) {
	f := func(raw []int16, shift uint8, pastCap bool) bool {
		samples := make([]int64, len(raw))
		for i, v := range raw {
			samples[i] = int64(v) << (shift % 4)
			if pastCap {
				samples[i] += denseCap
			}
		}
		s := summarize(samples)
		return s == reference(samples) && (s.N == 0 || s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	large := make([]int64, 100_000)
	for i := range large {
		large[i] = 1000 + rng.Int64N(10_000)
		if i%97 == 0 {
			large[i] = rng.Int64N(4*denseCap) - denseCap
		}
	}
	// dense's counters wrap at 1<<16: those of 0 and 5 wrap twice, beside
	// a lone 3 and a -1.
	wrapped := []int64{-1, 5, 3, 0}
	for range 2 << 16 {
		wrapped = append(wrapped, 0, 5)
	}
	for name, samples := range map[string][]int64{
		"empty":        nil,
		"one":          {7},
		"all-equal":    {42, 42, 42, 42, 42},
		"zero":         {0, 0, 3},
		"negative":     {-5, -1, 0, 2, -5, 9},
		"cap-sides":    {denseCap - 1, denseCap, denseCap - 1, denseCap + 1, 0},
		"past-cap":     {denseCap, 3 * denseCap, 2 * denseCap},
		"large-100000": large,
		"wrapped":      wrapped,
	} {
		if got, want := summarize(samples), reference(samples); got != want {
			t.Errorf("%s: summary %+v, reference %+v", name, got, want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	c := NewCollector()
	for range 3 {
		c.Add(5)
	}
	if got := c.Summarize().String(); !strings.Contains(got, "n=3") {
		t.Fatalf("string = %q", got)
	}
}
