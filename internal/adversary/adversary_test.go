package adversary

import (
	"testing"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/protocols/contrarian"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/copssnow"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/eiger"
	"repro/internal/protocols/fatcops"
	"repro/internal/protocols/gentlerain"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/orbe"
	"repro/internal/protocols/ramp"
	"repro/internal/protocols/spanner"
	"repro/internal/protocols/twopcfast"
	"repro/internal/protocols/wren"
)

func run(t *testing.T, p protocol.Protocol) *Verdict {
	t.Helper()
	v, err := NewAttack(p).Run()
	if err != nil {
		t.Fatalf("attack on %s failed: %v", p.Name(), err)
	}
	t.Logf("%s", v)
	return v
}

// TestNaivefastViolatesLemma1: the theorem's first victim. The adversary
// must construct the γ execution and exhibit a mixed read.
func TestNaivefastViolatesLemma1(t *testing.T) {
	v := run(t, naivefast.New())
	if v.Sacrifices != "consistency" {
		t.Fatalf("verdict = %q, want consistency", v.Sacrifices)
	}
	if v.Witness == nil {
		t.Fatal("no witness execution")
	}
	if v.Witness.Kind != "gamma" && v.Witness.Kind != "delta" {
		t.Fatalf("witness kind = %q", v.Witness.Kind)
	}
	// The witness must genuinely mix old and new values.
	sawOld, sawNew := false, false
	for obj, val := range v.Witness.Returned {
		if val == v.Witness.OldValues[obj] {
			sawOld = true
		}
		if val == v.Witness.NewValues[obj] {
			sawNew = true
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("witness is not mixed: %v", v.Witness.Returned)
	}
}

// TestTwopcfastViolatesLemma1: the second victim needs the induction —
// its prepare acknowledgements are the implicit messages ms_1, ms_2 of
// Lemma 3 — before the contradiction appears.
func TestTwopcfastViolatesLemma1(t *testing.T) {
	v := run(t, twopcfast.New())
	if v.Sacrifices != "consistency" {
		t.Fatalf("verdict = %q, want consistency", v.Sacrifices)
	}
	if v.Witness == nil {
		t.Fatal("no witness execution")
	}
	if len(v.Steps) < 2 {
		t.Fatalf("expected at least 2 induction steps (the prepare acks), got %d", len(v.Steps))
	}
	for _, s := range v.Steps {
		if s.NewValuesVisible {
			t.Fatalf("claim 2 violated at step %d but no δ verdict", s.K)
		}
	}
}

// TestHonestProtocolsSacrificeExactlyOneProperty reproduces the paper's
// conclusion: every honest design gives up exactly one of {W, O, V, N}.
func TestHonestProtocolsSacrificeExactlyOneProperty(t *testing.T) {
	cases := []struct {
		p    protocol.Protocol
		want string
	}{
		{copssnow.New(), "W"},   // fast ROTs, single-object writes (N+O+V)
		{cops.New(), "W"},       // no write transactions
		{contrarian.New(), "W"}, // no write transactions
		{gentlerain.New(), "W"}, // no write transactions
		{orbe.New(), "W"},       // no write transactions
		{wren.New(), "O"},       // cutoff round (N+V+W)
		{cure.New(), "O"},       // stable-vector round
		{spanner.New(), "N"},    // safe-time blocking (O+V+W)
		{fatcops.New(), "V"},    // fat responses (N+O+W)
	}
	for _, c := range cases {
		v := run(t, c.p)
		if v.Sacrifices != c.want {
			t.Errorf("%s: sacrifices %q, want %q (%s)", c.p.Name(), v.Sacrifices, c.want, v.Detail)
		}
		if v.Witness != nil {
			t.Errorf("%s: unexpected consistency violation: %v", c.p.Name(), v.Witness)
		}
	}
}

// TestRetryProtocolsEscapeViaExtraRounds: eiger and ramp look fast on the
// happy path but escape the adversary's trap by spending extra rounds —
// the verdict must be "sacrifices O", not a consistency violation.
func TestRetryProtocolsEscapeViaExtraRounds(t *testing.T) {
	for _, p := range []protocol.Protocol{eiger.New(), ramp.New()} {
		v := run(t, p)
		if v.Sacrifices != "O" {
			t.Errorf("%s: sacrifices %q, want O (%s)", p.Name(), v.Sacrifices, v.Detail)
		}
		if v.Witness != nil {
			t.Errorf("%s: unexpected violation witness", p.Name())
		}
	}
}

// TestSetupC0 verifies Figure 1: after setup, c_w has read the initial
// values and the system is quiescent.
func TestSetupC0(t *testing.T) {
	d, err := SetupC0(naivefast.New(), protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Kernel.Quiescent() {
		t.Fatal("C0 not quiescent")
	}
	vis := d.VisibleAll("r0", oldValues(d))
	if !vis.Visible {
		t.Fatalf("initial values not visible at C0: %+v", vis)
	}
}

// TestWitnessHistoryFailsCausalCheck ties the adversary to the formal
// checker: feeding the witness execution's transactions into the
// Definition 1 checker must yield a causal-consistency violation, for
// both victims under Theorem 1's minimal system and Theorem 2's partially
// replicated one.
func TestWitnessHistoryFailsCausalCheck(t *testing.T) {
	for _, p := range []protocol.Protocol{naivefast.New(), twopcfast.New()} {
		for _, a := range []*Attack{NewAttack(p), partialAttack(p, 3)} {
			v, err := a.Run()
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if v.Witness == nil {
				t.Fatalf("%s (%d servers): no witness", p.Name(), a.Cfg.Servers)
			}
			// Reconstruct the history the witness implies (cf. Lemma 1's
			// proof): T_in writes, c_w's initial read, Tw, and the mixed read.
			if history.CheckCausal(witnessHistory(v.Witness)).OK {
				t.Fatalf("%s (%d servers): witness history unexpectedly causal", p.Name(), a.Cfg.Servers)
			}
		}
	}
}
