package sim

// arrivalHeap is a min-heap over in-transit messages ordered by (ReadyAt,
// ID), the earliest-arrival index of one partition of the process set (see
// Kernel.arrivals). Entries are lazily invalidated — Deliver/DropInTransit
// mark the message gone, a fault marks it held, and top discards such
// entries as they surface (the held stash re-pushes on release, so nothing
// is lost) — so a message is pushed and popped O(log n) amortized per
// send. The sifts are typed, with the comparison inlined: this is the one
// structure every message of every run passes through.
type arrivalHeap []*Message

func earlier(a, b *Message) bool {
	return a.ReadyAt < b.ReadyAt || (a.ReadyAt == b.ReadyAt && a.ID < b.ID)
}

func (h *arrivalHeap) push(m *Message) {
	s := append(*h, m)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !earlier(m, s[p]) {
			break
		}
		s[i], i = s[p], p
	}
	s[i] = m
	*h = s
}

// pop removes and returns the heap's minimum; the heap must not be empty.
func (h *arrivalHeap) pop() *Message {
	s := *h
	first, n := s[0], len(s)-1
	m := s[n]
	s[n] = nil
	s = s[:n]
	for i := 0; n > 0; {
		c := 2*i + 1
		if c+1 < n && earlier(s[c+1], s[c]) {
			c++
		}
		if c >= n || !earlier(s[c], m) {
			s[i] = m
			break
		}
		s[i], i = s[c], c
	}
	*h = s
	return first
}

// top returns the earliest deliverable entry, or nil, discarding stale
// (delivered, dropped or held) entries on the way.
func (h *arrivalHeap) top() *Message {
	for len(*h) > 0 {
		if m := (*h)[0]; !m.gone && !m.held {
			return m
		}
		h.pop()
	}
	return nil
}

// pushArrival indexes a deliverable in-transit message under its
// destination's partition.
func (k *Kernel) pushArrival(m *Message) { k.arrivals[k.part[m.to]].push(m) }

// EarliestArrival returns the deliverable in-transit message with the
// smallest (ReadyAt, ID), or nil when nothing is deliverable.
func (k *Kernel) EarliestArrival() *Message {
	var best *Message
	for i := range k.arrivals {
		if m := k.arrivals[i].top(); m != nil && (best == nil || earlier(m, best)) {
			best = m
		}
	}
	return best
}

// partition re-buckets the arrival index into n heaps, part mapping each
// slot to its own (NewLookaheadRunner: one heap per shard).
func (k *Kernel) partition(n int, part []int32) {
	old := k.arrivals
	k.arrivals, k.part = make([]arrivalHeap, n), part
	for _, h := range old {
		for _, m := range h {
			if !m.gone && !m.held {
				k.pushArrival(m)
			}
		}
	}
}
