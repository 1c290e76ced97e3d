package stats

import (
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

func TestPercentilesOrdered(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		c := NewCollector()
		for _, v := range raw {
			c.Add(int64(v))
		}
		s := c.Summarize()
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	c := NewCollector()
	c.AddAll(5, 5, 5)
	if got := c.Summarize().String(); !strings.Contains(got, "n=3") {
		t.Fatalf("string = %q", got)
	}
}
