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

// forEachAndNot calls f for every element of b ∖ o in ascending order
// (capacities must match). f must not add to either set.
func (b bitset) forEachAndNot(o bitset, f func(i int)) {
	for w, word := range b {
		for word &^= o[w]; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place: bit k of row j
// moves to bit j of row k (recursive block swaps, Hacker's Delight 7-3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
	}
}

// orTransposed takes row j of src for each bit j of mask (the rows of
// block w), keeps the bits of their word v that keep holds, transposes
// that 64×64 block and ORs it into dst: bit k of src[j][v] becomes bit j
// of dst[v<<6+k][w].
func orTransposed(dst, src []bitset, w, v int, mask, keep uint64) {
	var block [64]uint64
	var any uint64
	for m := mask; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		block[j] = src[j][v] & keep
		any |= block[j]
	}
	if any == 0 {
		return
	}
	transpose64(&block)
	for k, row := range block {
		if row != 0 {
			dst[v<<6+k][w] |= row
		}
	}
}

// transposed returns the transpose of the n×n bit matrix rows (row j
// holds bit k exactly when the result's row k holds bit j), 64×64 blocks
// at a time.
func transposed(rows []bitset) []bitset {
	n := len(rows)
	out := make([]bitset, n)
	for i := range out {
		out[i] = newBitset(n)
	}
	for w := 0; w<<6 < n; w++ {
		mask := ^uint64(0)
		if rest := n - w<<6; rest < 64 {
			mask = 1<<uint(rest) - 1
		}
		for v := 0; v<<6 < n; v++ {
			orTransposed(out, rows[w<<6:], w, v, mask, ^uint64(0))
		}
	}
	return out
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
