package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Formatting through these drops the String methods, so every field prints.
type (
	rawProfile     spec.Profile
	rawMeasurement spec.Measurement
)

// TestProfilePins pins what spec measures of every protocol, the inputs of
// Table 1's R, V and N columns: the BuildProfile row at Table 1's
// deployment, and the full Measurement (rounds, values per object and per
// message, foreign values, deferred, server steps) of a two-object write,
// a one-object write and a two-object read-only transaction under the
// three schedules BuildProfile reads under.
func TestProfilePins(t *testing.T) {
	want := map[string]string{
		"contrarian": "f419cc47c084",
		"cops":       "5fc9ccfd0d69",
		"copssnow":   "e96a809d82ce",
		"cure":       "f7f9775458d7",
		"eiger":      "49be150a9317",
		"eigerps":    "6229aaf07ba1",
		"fatcops":    "582aaeb54f40",
		"gentlerain": "f94196b6da56",
		"naivefast":  "ae6902204bb9",
		"orbe":       "ce2351fb1cd0",
		"ramp":       "c5578d41538c",
		"spanner":    "290462870d72",
		"twopcfast":  "9da0f75273d9",
		"wren":       "76ec2e097880",
	}
	cfg := protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 7}
	got, text := map[string]string{}, map[string]string{}
	for _, p := range All() {
		prof, err := spec.BuildProfile(p, cfg, []int64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprintf("%+v\n", rawProfile(prof))
		for _, m := range measureTxns(t, p, cfg) {
			s += fmt.Sprintf("%+v\n", rawMeasurement(m))
		}
		got[p.Name()], text[p.Name()] = fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:12], s
	}
	if len(got) != len(want) {
		t.Errorf("%d protocols measured, %d pinned: %q", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %q, pinned %q, measured\n%s", name, got[name], w, text[name])
		}
	}
}

// measureTxns runs BuildProfile's measurement phase on a fresh deployment
// and returns every transaction's Measurement, writes included.
func measureTxns(t *testing.T, p protocol.Protocol, cfg protocol.Config) []spec.Measurement {
	d := protocol.Deploy(p, cfg)
	if err := d.InitAll(200_000); err != nil {
		t.Fatal(err)
	}
	x0, x1 := d.Place.Objects()[0], d.Place.Objects()[1]
	var ms []spec.Measurement
	run := func(c sim.ProcessID, txn *model.Txn, sched sim.Scheduler) {
		from := d.Kernel.Trace().Len()
		ms = append(ms, spec.MeasureResult(d, from, d.RunTxnWith(c, txn, sched, 200_000)))
		d.Settle(200_000)
	}
	run(d.Clients[0], model.NewWriteOnly(model.TxnID{},
		model.Write{Object: x0, Value: "pin-w0"}, model.Write{Object: x1, Value: "pin-w1"}), &sim.RoundRobin{})
	run(d.Clients[0], model.NewWriteOnly(model.TxnID{}, model.Write{Object: x0, Value: "pin-s0"}), &sim.RoundRobin{})
	for _, sched := range []sim.Scheduler{&sim.RoundRobin{}, sim.NewRandom(cfg.Seed + 101), sim.NewRandom(cfg.Seed + 202)} {
		run(d.Clients[1], model.NewReadOnly(model.TxnID{}, x0, x1), sched)
	}
	return ms
}
