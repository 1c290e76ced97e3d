package ledger

import (
	"math"
	"sort"
)

// Median of xs (0 for none).
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the default exclusive method), so spreads computed here and by
// anyone checking the benchmark from outside agree to the digit. A single
// sample is its own quartiles; none gives zeros.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs. It
// reports ok only when at least ten samples lie beyond the rank, the
// rule for quoting a tail percentile at all: p99 needs 1000 samples.
func Percentile(xs []float64, p float64) (v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= 10
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Summary is a timing metric over the reps of one run.
type Summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// Spread is the q1-q3 distance as a share of the median: the run-to-run
// spread the bounds are compared against.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// Summarize reduces per-rep samples to median, quartiles and count.
func Summarize(unit string, xs []float64) Summary {
	q1, q2, q3 := Quartiles(xs)
	return Summary{Unit: unit, Median: q2, N: len(xs), Q1: q1, Q3: q3, Samples: xs}
}

// Value is one metric of a result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output of a single-workload run,
// from the runner and from the tracer alike.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// TraceResult is what the tracer adds for the runner: the checks that
// failed, and remarks such as a percentile it declined to quote.
type TraceResult struct {
	Result
	Problems []string `json:"problems,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}
