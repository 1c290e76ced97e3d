package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"
)

// TestConstructionsGolden pins every byte constructions prints: Figure 1's
// setup trace, Figure 2's probe reads and Table 2's symbols.
func TestConstructionsGolden(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(nil, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	const pinned = "cda55c1a00350b021d61c00cf586530699c52fae8ce76d0e47264b0fcaa1d3b1"
	if got := fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes())); got != pinned {
		t.Errorf("sha256 %s, pinned %s; output:\n%s", got, pinned, stdout.String())
	}
}
