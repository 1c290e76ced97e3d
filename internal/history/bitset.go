package history

import "math/bits"

// bitset is a fixed-capacity set of small non-negative integers, used for
// transaction index sets in the dependency graph and the solver's order
// closure. It replaces the raw uint64 masks of the original checkers,
// whose silent 64-element ceiling was only guarded by MaxTxns.
type bitset []uint64

// newBitset returns an empty bitset able to hold values in [0, n).
func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

// set adds i to the set.
func (b bitset) set(i int) { b[i>>6] |= 1 << uint(i&63) }

// has reports whether i is in the set.
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// clear removes i from the set.
func (b bitset) clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// reset empties the set in place.
func (b bitset) reset() {
	for w := range b {
		b[w] = 0
	}
}

// empty reports whether the set has no elements.
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// min returns the smallest element (the set must not be empty).
func (b bitset) min() int {
	w := 0
	for b[w] == 0 {
		w++
	}
	return w<<6 + bits.TrailingZeros64(b[w])
}

// grow returns a bitset with at least words words, preserving contents.
// The receiver is returned unchanged when already wide enough.
func (b bitset) grow(words int) bitset {
	if len(b) >= words {
		return b
	}
	out := make(bitset, words)
	copy(out, b)
	return out
}

// or unions o into b (capacities must match).
func (b bitset) or(o bitset) {
	for w := range b {
		b[w] |= o[w]
	}
}

// count returns the number of elements.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls f for every element in ascending order.
func (b bitset) forEach(f func(i int)) {
	for w, word := range b {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			f(i)
			word &= word - 1
		}
	}
}

// forEachAnd calls f for every element of b ∧ o in ascending order
// (capacities must match). f must not add to either set.
func (b bitset) forEachAnd(o bitset, f func(i int)) {
	for w, word := range b {
		for word &= o[w]; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// clone returns an independent copy.
func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

// copyFrom overwrites b with o (capacities must match).
func (b bitset) copyFrom(o bitset) { copy(b, o) }

// containsAll reports whether every element of o is in b (capacities
// must match).
func (b bitset) containsAll(o bitset) bool {
	for w := range o {
		if o[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}
