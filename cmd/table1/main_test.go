package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
)

// TestTable1Golden pins every byte table1 prints: the measured Table 1
// with its theorem verdicts, the paper's rows, Theorem 1 and the §3.4
// corner audit. A protocol, checker or adversary change that moves a row
// shows here as a different digest.
func TestTable1Golden(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(nil, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	const pinned = "4ce19bdb5d657c2564e3919647fa21121dbd9f64137e5d65f7a647b6b89b9851"
	if got := fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes())); got != pinned {
		t.Errorf("sha256 %s, pinned %s; output:\n%s", got, pinned, stdout.String())
	}
}

// TestAuditRefusesDoctoredCorner feeds the audit the four corner rows,
// then copssnow's with multi-object write transactions it gives up: the
// audit must pass the first and refuse the second by corner and property.
func TestAuditRefusesDoctoredCorner(t *testing.T) {
	rows := []core.Row{
		{Profile: spec.Profile{Protocol: "copssnow", ROTRounds: 1, ValuesPerObject: 1, NonBlocking: true, CausalOK: true}},
		{Profile: spec.Profile{Protocol: "wren", ROTRounds: 2, ValuesPerObject: 1, NonBlocking: true, MultiWrite: true, CausalOK: true}},
		{Profile: spec.Profile{Protocol: "fatcops", ROTRounds: 1, ValuesPerObject: 2, ForeignValues: true, NonBlocking: true, MultiWrite: true, CausalOK: true}},
		{Profile: spec.Profile{Protocol: "spanner", ROTRounds: 1, ValuesPerObject: 1, MultiWrite: true, CausalOK: true}},
	}
	if err := audit(io.Discard, rows); err != nil {
		t.Fatalf("audit of the corners as claimed: %v", err)
	}
	rows[0].Profile.MultiWrite = true
	err := audit(io.Discard, rows)
	if err == nil || !strings.Contains(err.Error(), "copssnow: property W = true") {
		t.Fatalf("audit of copssnow with write transactions = %v, want a copssnow W mismatch", err)
	}
}
