// Package adversary implements the impossibility proof of the paper as an
// executable attack. Given any protocol that claims fast read-only
// transactions (Definition 4) together with multi-object write
// transactions, it constructs the executions of Theorem 1:
//
//   - the setup execution Q_in → Q_0 → C_0 (Figure 1),
//   - Constructions 1 and 2 (σ_old/γ_old and σ_new/γ_new, Figure 2),
//   - the filtered execution β_new = β_p · β_s and the contradiction
//     execution γ = σ_old · β_new · σ_new (Figure 3), via deterministic
//     script replay on configuration snapshots, and
//   - the induction of Lemma 3: the prefixes α_k of the troublesome
//     execution α, cut at the messages ms_k that some server must keep
//     sending for the written values to become visible.
//
// For the "victim" protocols (naivefast, twopcfast) the adversary produces
// a concrete mixed-read execution violating Lemma 1 — the causal-
// consistency contradiction at the heart of the proof. For honest
// protocols it reports which of the four properties {W, O, V, N} the
// protocol sacrifices, reproducing the paper's Table 1 from behaviour.
package adversary

import (
	"errors"
	"fmt"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/spec"
)

// StepReport describes one induction step k of Lemma 3.
type StepReport struct {
	K int
	// Msk describes the message the server had to send (claim 1): either
	// a direct server→server message or a server→client message that
	// made the writing client relay to the other server.
	Msk string
	// Events is the number of events in the segment α'_k.
	Events int
	// NewValuesVisible must be false (claim 2); true means the claim-2
	// contradiction (execution δ) was constructed.
	NewValuesVisible bool
}

// Witness is a concrete Lemma-1-violating execution found by the attack.
type Witness struct {
	// Kind is "gamma" (claim 1, Figure 3) or "delta" (claim 2).
	Kind string
	// K is the induction step at which the contradiction arose.
	K int
	// Reader is the client that observed the mixed read.
	Reader sim.ProcessID
	// Returned maps objects to the values the read-only transaction
	// returned: a mix of initial and new values, forbidden by Lemma 1.
	Returned map[string]model.Value
	// OldValues / NewValues give the reference points.
	OldValues, NewValues map[string]model.Value
}

func (w *Witness) String() string {
	return fmt.Sprintf("%s-execution at k=%d: reader %s returned mixed values %v (old=%v new=%v)",
		w.Kind, w.K, w.Reader, w.Returned, w.OldValues, w.NewValues)
}

// Verdict is the outcome of running the theorem against a protocol.
type Verdict struct {
	Protocol string
	Claims   protocol.Claims
	// Sacrifices names the property the protocol gives up: "W"
	// (multi-object write transactions), "O" (one round), "V" (one
	// value), "N" (non-blocking), or "consistency" when the adversary
	// refuted the causal-consistency claim, or "minimal-progress" when
	// the written values never became visible.
	Sacrifices string
	// Witness is the Lemma-1 violation when Sacrifices == "consistency".
	Witness *Witness
	// Steps reports the induction prefixes α_1 ⊂ α_2 ⊂ ... examined.
	Steps []StepReport
	// Detail is a human-readable explanation.
	Detail string
}

func (v *Verdict) String() string {
	s := fmt.Sprintf("%s: sacrifices %s — %s", v.Protocol, v.Sacrifices, v.Detail)
	if v.Witness != nil {
		s += "\n  witness: " + v.Witness.String()
	}
	for _, st := range v.Steps {
		s += fmt.Sprintf("\n  α_%d: %d events, ms_%d = %s, visible=%v",
			st.K, st.Events, st.K, st.Msk, st.NewValuesVisible)
	}
	return s
}

// Attack is a configured theorem run.
type Attack struct {
	Proto protocol.Protocol
	Cfg   protocol.Config
	// MaxK bounds the induction depth (default 8).
	MaxK int
	// SegmentCap bounds the solo-run length per induction step.
	SegmentCap int
	// LastContradictionTrace holds the events of the most recent γ/δ
	// construction, for rendering (Figure 3).
	LastContradictionTrace []sim.Event
}

// NewAttack builds an attack with defaults: the paper's minimal system (2
// servers, 1 object each, ≥ 4 clients).
func NewAttack(p protocol.Protocol) *Attack {
	return &Attack{
		Proto:      p,
		Cfg:        protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Readers: 6, Seed: 42},
		MaxK:       8,
		SegmentCap: 4000,
	}
}

// newValues returns the values Tw writes (one per object).
func newValues(objs []string) map[string]model.Value {
	out := make(map[string]model.Value, len(objs))
	for _, o := range objs {
		out[o] = model.Value("new_" + o)
	}
	return out
}

// Run executes the theorem against the protocol.
func (a *Attack) Run() (*Verdict, error) {
	claims := a.Proto.Claims()
	v := &Verdict{Protocol: a.Proto.Name(), Claims: claims}

	// Gate 1: protocols without multi-object write transactions sacrifice
	// W — the paper's conclusion for COPS-SNOW and friends. Verified
	// behaviourally, not just by the claim.
	d, err := SetupC0(a.Proto, a.Cfg)
	if err != nil {
		return nil, err
	}
	objs := d.Place.Objects()
	if len(objs) < 2 {
		return nil, fmt.Errorf("adversary: need at least 2 objects")
	}
	x0, x1 := objs[0], objs[1]
	cw := d.Clients[0]

	probe := protocol.Deploy(a.Proto, a.Cfg)
	if err := probe.InitAll(200_000); err != nil {
		return nil, err
	}
	mw := probe.RunTxn(probe.Clients[1], model.NewWriteOnly(model.TxnID{},
		model.Write{Object: x0, Value: "wprobe0"}, model.Write{Object: x1, Value: "wprobe1"}), 200_000)
	if !mw.OK() {
		v.Sacrifices = "W"
		v.Detail = "multi-object write transactions rejected: " + errStr(mw)
		return v, nil
	}

	// Gate 2: measure the fast-ROT sub-properties. A protocol that is
	// honest about paying an extra round / extra values / blocking is
	// consistent with the theorem.
	probe.Settle(200_000)
	from := probe.Kernel.Trace().Len()
	rot := probe.RunTxn(probe.Clients[0], model.NewReadOnly(model.TxnID{}, x0, x1), 400_000)
	if rot == nil || !rot.OK() {
		return nil, fmt.Errorf("adversary: measurement ROT failed under %s", a.Proto.Name())
	}
	m := spec.MeasureResult(probe, from, rot)
	switch {
	case m.Rounds > 1:
		v.Sacrifices = "O"
		v.Detail = fmt.Sprintf("read-only transactions take %d rounds", m.Rounds)
		return v, nil
	case m.MaxValuesPerObject > 1 || m.ForeignValues:
		v.Sacrifices = "V"
		v.Detail = fmt.Sprintf("responses carry %d values per object (foreign values: %v)",
			m.MaxValuesPerObject, m.ForeignValues)
		return v, nil
	case m.Deferred:
		v.Sacrifices = "N"
		v.Detail = "servers defer read responses (blocking)"
		return v, nil
	}

	// The protocol exhibits fast ROTs AND multi-object writes: by
	// Theorem 1 it cannot be causally consistent. Run the induction and
	// construct the contradiction.
	w, steps, err := a.induction(d, cw)
	v.Steps = steps
	if errors.Is(err, ErrEscapedRounds) {
		v.Sacrifices = "O"
		v.Detail = "under the adversarial schedule the read-only transaction needed extra rounds (retry/repair), so the one-round property does not actually hold"
		return v, nil
	}
	if err != nil {
		return nil, err
	}
	if w != nil {
		// The theorem's conclusion, checked: the history the witness
		// implies must fail Definition 1.
		if history.CheckCausal(witnessHistory(w)).OK {
			return nil, fmt.Errorf("adversary: %s: the witness history passes the causal check", a.Proto.Name())
		}
		v.Sacrifices = "consistency"
		v.Witness = w
		v.Detail = "fast ROTs + multi-object writes: the adversary constructed a mixed read violating Lemma 1"
		return v, nil
	}
	v.Sacrifices = "minimal-progress"
	v.Detail = fmt.Sprintf(
		"after %d induction steps the values written by Tw are still not visible and every step required another server message — the infinite execution α of Theorem 1",
		len(steps))
	return v, nil
}

func errStr(r *model.Result) string {
	if r == nil {
		return "did not complete"
	}
	return r.Err
}
