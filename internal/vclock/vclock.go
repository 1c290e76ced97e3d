// Package vclock provides the logical-time substrates used by the modeled
// storage systems: Lamport clocks (GentleRain-style global stable time),
// vector clocks (Cure-style stable vectors, Orbe's dependency vectors) and
// hybrid logical clocks (Wren).
package vclock

import (
	"fmt"
	"strings"
)

// Lamport is a scalar logical clock.
type Lamport struct {
	T int64
}

// Tick advances the clock for a local event and returns the new value.
func (l *Lamport) Tick() int64 {
	l.T++
	return l.T
}

// Observe merges a remote timestamp (receive rule) and ticks.
func (l *Lamport) Observe(remote int64) int64 {
	if remote > l.T {
		l.T = remote
	}
	return l.Tick()
}

// Clone returns a copy.
func (l *Lamport) Clone() *Lamport { c := *l; return &c }

// Vector is a vector clock over a fixed number of entries (one per server
// or per replica, depending on the protocol).
type Vector []int64

// NewVector returns a zero vector of n entries.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Merge sets v to the entrywise maximum of v and o. Vectors must have the
// same length; Merge panics otherwise (a protocol wiring bug).
func (v Vector) Merge(o Vector) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("vclock: merge of mismatched vectors %d vs %d", len(v), len(o)))
	}
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// LessEq reports whether v ≤ o entrywise (v happened-before-or-equals o).
func (v Vector) LessEq(o Vector) bool {
	if len(v) != len(o) {
		panic("vclock: compare of mismatched vectors")
	}
	for i, x := range v {
		if x > o[i] {
			return false
		}
	}
	return true
}

// Compare is a total order on equal-length vectors: lexicographic by
// entry. It extends the happened-before partial order (if v ≤ o entrywise
// then Compare(v, o) ≤ 0), giving concurrent vectors a uniform arbitration
// every process agrees on — the vector half of the store's version order.
func (v Vector) Compare(o Vector) int {
	if len(v) != len(o) {
		panic("vclock: compare of mismatched vectors")
	}
	for i, x := range v {
		if x != o[i] {
			if x < o[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// HLC is a hybrid logical clock: a physical component (the process's local
// clock, possibly skewed) combined with a logical counter that restores
// the happened-before property.
type HLC struct {
	Wall    int64 // last observed physical time
	Logical int64 // tie-breaking logical counter
}

// HLCStamp is a totally ordered HLC timestamp.
type HLCStamp struct {
	Wall    int64
	Logical int64
}

// Before reports strict order.
func (s HLCStamp) Before(o HLCStamp) bool {
	if s.Wall != o.Wall {
		return s.Wall < o.Wall
	}
	return s.Logical < o.Logical
}

// Compare returns -1, 0 or 1.
func (s HLCStamp) Compare(o HLCStamp) int {
	switch {
	case s.Before(o):
		return -1
	case o.Before(s):
		return 1
	default:
		return 0
	}
}

func (s HLCStamp) String() string { return fmt.Sprintf("%d.%d", s.Wall, s.Logical) }

// Now advances the clock for a local/send event given the current physical
// time and returns the new stamp.
func (h *HLC) Now(phys int64) HLCStamp {
	if phys > h.Wall {
		h.Wall = phys
		h.Logical = 0
	} else {
		h.Logical++
	}
	return HLCStamp{Wall: h.Wall, Logical: h.Logical}
}

// Observe merges a remote stamp on receive and returns the new local stamp.
func (h *HLC) Observe(phys int64, remote HLCStamp) HLCStamp {
	switch {
	case phys > h.Wall && phys > remote.Wall:
		h.Wall = phys
		h.Logical = 0
	case remote.Wall > h.Wall:
		h.Wall = remote.Wall
		h.Logical = remote.Logical + 1
	case h.Wall > remote.Wall:
		h.Logical++
	default: // equal walls
		if remote.Logical > h.Logical {
			h.Logical = remote.Logical
		}
		h.Logical++
	}
	return HLCStamp{Wall: h.Wall, Logical: h.Logical}
}

// Clone returns a copy.
func (h *HLC) Clone() *HLC { c := *h; return &c }
