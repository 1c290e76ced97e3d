package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestImpossibilityGolden pins every byte of the three runs: Theorem 1's
// verdicts on all models, the same with the contradiction executions
// rendered (Figure 3 is naivefast's), and Theorem 2's at 3 servers.
func TestImpossibilityGolden(t *testing.T) {
	for _, tc := range []struct{ args, sum string }{
		{"", "8123b3ac17bc663a5681a3e64d1f525535b10a75cbcb14758850db0986e0321d"},
		{"-trace", "d3a0a3633ff62663394f65267fcc82b536c5ea2284687fe7f282c6dc1c25afb3"},
		{"-partial", "10de4f8bc589ab742e5c1778fa8fcc19ab28107bd4b16df29c20253cf391924d"},
	} {
		var stdout bytes.Buffer
		if err := run(strings.Fields(tc.args), &stdout, io.Discard); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes())); got != tc.sum {
			t.Errorf("%q: sha256 %s, pinned %s; output:\n%s", tc.args, got, tc.sum, stdout.String())
		}
	}
}

// TestRunRefusals holds impossibility to refusing, by flag and before
// attacking anything, a server count that does not describe the system it
// would run: one without -partial, and a partial system on fewer than
// three servers, where two replicas per object replicate everything.
func TestRunRefusals(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-servers 4", "-servers applies only with -partial"},
		{"-servers 3", "-servers applies only with -partial"},
		{"-partial -servers 2", "-partial needs -servers ≥ 3, got 2"},
		{"-partial -servers 0", "-partial needs -servers ≥ 3, got 0"},
		{"-k 3", "-k"},
	} {
		var stdout bytes.Buffer
		err := run(strings.Fields(tc.args), &stdout, io.Discard)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want a usage error naming %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q before refusing", tc.args, stdout.String())
		}
	}
}
