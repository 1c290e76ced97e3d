package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"repro/cmd/perf/ledger"
)

// wallFields are the two wall-clock columns of a certified grid, the
// only fields exempt from cmd/bench's byte-identity contract.
var wallFields = [][]byte{[]byte(`"cert_wall_ms":`), []byte(`"cert_batch_wall_ms":`)}

// stripWall drops the wall-clock lines from an indented cmd/bench grid
// (one field per line), leaving the deterministic part to be digested.
func stripWall(grid []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(grid, []byte("\n")) {
		wall := false
		for _, f := range wallFields {
			wall = wall || bytes.Contains(line, f)
		}
		if !wall {
			out = append(out, line...)
		}
	}
	return out
}

// gridRow is what the gate reads of a cmd/bench row (closed-loop and
// curve rows share these columns).
type gridRow struct {
	Protocol          string `json:"protocol"`
	Txns              int    `json:"txns"`
	Committed         int    `json:"committed"`
	Rejected          int    `json:"rejected"`
	Incomplete        int    `json:"incomplete"`
	Cert              string `json:"cert"`
	FirstViolationTxn *int   `json:"first_violation_txn"`
}

// rowTally is the gate's verdict on one child's grid: transactions
// issued, transactions counted as failed (incomplete, rejected, or every
// transaction of a cell whose verdict is wrong), and transactions that
// count as done work — committed, and on a certified cell certified too.
type rowTally struct {
	attempted, failed, done int
	problems                []string
}

// checkRows applies the per-row gate to the grid one command printed.
func checkRows(cmd ledger.Command, grid []byte) rowTally {
	var t rowTally
	var rows []gridRow
	if err := json.Unmarshal(grid, &rows); err != nil {
		t.attempted = cmd.Rows() * cmd.Txns
		t.failed = t.attempted
		t.problems = append(t.problems, fmt.Sprintf("%s: output is not a grid: %v", cmd.Label(), err))
		return t
	}
	if len(rows) != cmd.Rows() {
		t.problems = append(t.problems, fmt.Sprintf("%s: %d rows, want %d", cmd.Label(), len(rows), cmd.Rows()))
	}
	for _, r := range rows {
		t.attempted += r.Txns
		bad := ""
		switch {
		case r.Incomplete != 0 || r.Rejected != 0 || r.Committed != r.Txns:
			bad = fmt.Sprintf("committed %d of %d (rejected %d, incomplete %d)", r.Committed, r.Txns, r.Rejected, r.Incomplete)
			t.failed += min(r.Txns, max(r.Txns-r.Committed, r.Incomplete+r.Rejected))
		case cmd.Certify && r.Protocol == "naivefast" && (r.Cert != "violation" || r.FirstViolationTxn == nil):
			bad = fmt.Sprintf("cert %q, want violation with a first offending commit", r.Cert)
			t.failed += r.Txns
		case cmd.Certify && r.Protocol != "naivefast" && r.Cert != "ok":
			bad = fmt.Sprintf("cert %q, want ok", r.Cert)
			t.failed += r.Txns
		case !cmd.Certify || r.Cert == "ok":
			t.done += r.Committed
		}
		if bad != "" {
			t.problems = append(t.problems, fmt.Sprintf("%s: %s", cmd.CellName(r.Protocol), bad))
		}
	}
	return t
}

var verdictLine = regexp.MustCompile(`(?m)^([a-z0-9]+): sacrifices ([A-Za-z-]+)`)

// checkImpossibility requires cmd/impossibility to mark exactly the
// theorem's three victims: naivefast and twopcfast give up consistency,
// eigerps minimal progress, and nobody else either.
func checkImpossibility(out []byte) []string {
	got := map[string][]string{}
	for _, m := range verdictLine.FindAllSubmatch(out, -1) {
		got[string(m[2])] = append(got[string(m[2])], string(m[1]))
	}
	var problems []string
	for what, want := range map[string]string{"consistency": "naivefast,twopcfast", "minimal-progress": "eigerps"} {
		sort.Strings(got[what])
		if have := strings.Join(got[what], ","); have != want {
			problems = append(problems, fmt.Sprintf("impossibility: sacrifices %s = [%s], want [%s]", what, have, want))
		}
	}
	sort.Strings(problems)
	return problems
}
