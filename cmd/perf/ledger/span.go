package ledger

import (
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the tracer from the
// benchmark's own files. Spans of one cell share Workload/Rep/Cell (a
// traced run is one rep, so Rep is 0).
// Start and End are nanoseconds since the tracer started.
type Span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Cell     string `json:"cell"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Parent indexes the span that caused this one (-1 for a root).
	Parent int `json:"parent"`
	// Counts are tallies taken at the same boundary (events, appends,
	// resolves, mallocs), so ratios are measured where the work happens.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// SelfTime is span i's duration minus the part of its interval its
// direct children cover. Overlapping children count once; a child
// reaching outside its parent is clipped to it.
func SelfTime(spans []Span, i int) int64 {
	p := spans[i]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, c := range spans {
		if c.Parent != i {
			continue
		}
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
	covered, edge := int64(0), p.Start
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		covered += k.hi - max(k.lo, edge)
		edge = k.hi
	}
	return p.Dur() - covered
}

// Recorder holds spans in memory until the tracer exits. It is used from
// one goroutine: the tracer wraps calls it makes itself, in sequence.
// A disabled recorder records nothing: the untraced side of the
// tracing-overhead probe.
type Recorder struct {
	Workload string
	Disabled bool

	epoch time.Time
	spans []Span
	open  []int
}

// NewRecorder starts the clock spans are stamped against.
func NewRecorder(workload string) *Recorder {
	return &Recorder{Workload: workload, epoch: time.Now()}
}

// Begin opens a span under the innermost open one and returns its handle.
func (r *Recorder) Begin(name, layer, cell string) int {
	if r.Disabled {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, Span{Name: name, Layer: layer, Workload: r.Workload, Cell: cell,
		Parent: parent, Start: int64(time.Since(r.epoch))})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// End closes the innermost span, which must be id, and attaches counts.
func (r *Recorder) End(id int, counts map[string]int64) {
	if r.Disabled {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.spans[id].Counts = counts
	r.open = r.open[:len(r.open)-1]
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span { return r.spans }
