// Package model defines the transaction model of the paper (Section 2):
// static transactions with read sets and write sets over named objects,
// identified clients, and opaque distinct values. It is shared by the
// store, the protocol SPI, the history checkers and the property
// measurements; it has no dependencies of its own.
package model

import (
	"fmt"
	"slices"
	"sort"
)

// Value is an opaque stored value. The paper assumes (w.l.o.g.) that all
// written values are distinct; workloads enforce this by construction.
type Value string

// Bottom is the "no value" placeholder (⊥).
const Bottom Value = ""

// TxnID identifies a transaction by the invoking client and a per-client
// sequence number.
type TxnID struct {
	Client string
	Seq    int
}

func (t TxnID) String() string { return fmt.Sprintf("%s/%d", t.Client, t.Seq) }

// IsZero reports whether the ID is unset.
func (t TxnID) IsZero() bool { return t.Client == "" && t.Seq == 0 }

// Write is a single write operation w(Object)Value.
type Write struct {
	Object string
	Value  Value
}

func (w Write) String() string { return fmt.Sprintf("w(%s)%s", w.Object, w.Value) }

// Txn is a static transaction T = (R_T, W_T): the read set and write set
// are known up front. A transaction with an empty write set is read-only;
// one with an empty read set is write-only. Within a read-write
// transaction, reads are taken to precede writes.
type Txn struct {
	ID      TxnID
	ReadSet []string
	Writes  []Write
}

// NewReadOnly builds a read-only transaction over the given objects.
func NewReadOnly(id TxnID, objects ...string) *Txn {
	return &Txn{ID: id, ReadSet: dedupeSorted(objects)}
}

// NewWriteOnly builds a write-only transaction performing the given writes.
func NewWriteOnly(id TxnID, writes ...Write) *Txn {
	return &Txn{ID: id, Writes: writes}
}

// IsReadOnly reports whether the transaction writes nothing.
func (t *Txn) IsReadOnly() bool { return len(t.Writes) == 0 }

// WriteSet returns the sorted set of objects written, in one fresh slice.
func (t *Txn) WriteSet() []string {
	if len(t.Writes) == 0 {
		return nil
	}
	objs := make([]string, len(t.Writes))
	for i, w := range t.Writes {
		objs[i] = w.Object
	}
	slices.Sort(objs)
	return slices.Compact(objs)
}

// Objects returns the sorted set of all objects accessed.
func (t *Txn) Objects() []string {
	return dedupeSorted(append(append([]string{}, t.ReadSet...), t.WriteSet()...))
}

// Clone returns a deep copy.
func (t *Txn) Clone() *Txn {
	c := &Txn{ID: t.ID}
	c.ReadSet = append([]string(nil), t.ReadSet...)
	c.Writes = append([]Write(nil), t.Writes...)
	return c
}

func (t *Txn) String() string {
	s := "T" + t.ID.String() + "("
	for i, o := range t.ReadSet {
		if i > 0 {
			s += ","
		}
		s += "r(" + o + ")"
	}
	for i, w := range t.Writes {
		if i > 0 || len(t.ReadSet) > 0 {
			s += ","
		}
		s += w.String()
	}
	return s + ")"
}

// Result is the response of a completed transaction: a value per object in
// the read set and an ack (implicit) per write, or an error for rejected
// transactions (e.g. a multi-object write transaction submitted to a
// protocol that does not support them).
type Result struct {
	Txn *Txn
	// Values holds the value read per object, aligned with Txn.ReadSet
	// (Bottom until set); read it through Value, write it through
	// SetValue.
	Values []Value
	Err    string
	// Invoked and Completed are virtual times (sim.Time values) recorded
	// by the client, used by latency experiments and the strict
	// serializability checker.
	Invoked, Completed int64
	// Rounds counts the client's request-sending steps (filled by the
	// client implementations for convenience; the spec package measures
	// it independently from traces).
	Rounds int
}

// OK reports whether the transaction completed without error.
func (r *Result) OK() bool { return r != nil && r.Err == "" }

// Value returns the value read for obj (Bottom if absent).
func (r *Result) Value(obj string) Value {
	if r == nil || r.Values == nil {
		return Bottom
	}
	if i := slices.Index(r.Txn.ReadSet, obj); i >= 0 {
		return r.Values[i]
	}
	return Bottom
}

// SetValue records v as the value read for obj, which must be in the
// read set.
func (r *Result) SetValue(obj string, v Value) {
	i := slices.Index(r.Txn.ReadSet, obj)
	if i < 0 {
		panic(fmt.Sprintf("model: %s sets a value for %s outside its read set", r.Txn.ID, obj))
	}
	r.Values[i] = v
}

// ValueRef describes one written value carried inside a message, used by
// the one-value-messages measurement (Definition 4, property 2).
type ValueRef struct {
	Object string
	Value  Value
	Writer TxnID
}

func (v ValueRef) String() string {
	return fmt.Sprintf("%s=%s by %s", v.Object, v.Value, v.Writer)
}

func dedupeSorted(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := append([]string(nil), in...)
	sort.Strings(out)
	j := 0
	for i := 1; i < len(out); i++ {
		if out[i] != out[j] {
			j++
			out[j] = out[i]
		}
	}
	return out[:j+1]
}
