package spec

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Profile is a measured Table-1 row for one protocol.
type Profile struct {
	Protocol string
	Claims   protocol.Claims

	// Measured read-only transaction properties (max over trials).
	ROTRounds       int
	ValuesPerObject int
	ValuesPerMsg    int
	ForeignValues   bool
	NonBlocking     bool
	// MultiWrite reports whether a multi-object write transaction was
	// accepted and completed.
	MultiWrite bool
	// Consistency verdicts over the randomized concurrent workloads.
	CausalOK     bool
	CausalReason string
	SerOK        bool
	StrictOK     bool
	ReadAtomicOK bool
	// Trials is the number of randomized workload trials run.
	Trials int
}

// FastROT reports whether the measured profile satisfies Definition 4.
func (p Profile) FastROT() bool {
	return p.ROTRounds <= 1 && p.ValuesPerObject <= 1 && !p.ForeignValues && p.NonBlocking
}

func (p Profile) String() string {
	return fmt.Sprintf("%-12s R=%d V=%d N=%v W=%v causal=%v",
		p.Protocol, p.ROTRounds, p.ValuesPerObject, p.NonBlocking, p.MultiWrite, p.CausalOK)
}

// invocation pairs a client with a transaction for a concurrent phase.
type invocation struct {
	client sim.ProcessID
	txn    *model.Txn
}

// runPhase invokes all transactions concurrently and drives the system
// with sched until every involved client is idle (or the budget runs out).
// Completed results are appended to the history.
func runPhase(d *protocol.Deployment, sched sim.Scheduler, h *history.History, invs []invocation, budget int) {
	ids := make([]model.TxnID, len(invs))
	for i, inv := range invs {
		ids[i] = d.Invoke(inv.client, inv.txn)
	}
	sim.Run(d.Kernel, sched, func(*sim.Kernel) bool {
		for _, inv := range invs {
			if d.Client(inv.client).Busy() {
				return false
			}
		}
		return true
	}, budget)
	for i, inv := range invs {
		res := d.Client(inv.client).Finished(ids[i])
		if res.OK() && h != nil {
			h.AddResult(res)
		}
	}
}

// BuildProfile measures a protocol: deploys it, measures ROT properties on
// a settled store, tests multi-object write support, and checks
// consistency of randomized concurrent workloads (one per seed).
func BuildProfile(p protocol.Protocol, cfg protocol.Config, seeds []int64) (Profile, error) {
	prof := Profile{Protocol: p.Name(), Claims: p.Claims(), NonBlocking: true,
		CausalOK: true, SerOK: true, StrictOK: true, ReadAtomicOK: true}

	// --- property measurement on a fresh deployment ---
	d := protocol.Deploy(p, cfg)
	if err := d.InitAll(200_000); err != nil {
		return prof, err
	}
	objs := d.Place.Objects()
	if len(objs) < 2 {
		return prof, fmt.Errorf("spec: need at least 2 objects, have %d", len(objs))
	}
	x0, x1 := objs[0], objs[1]

	// Multi-object write support.
	wres := d.RunTxn(d.Clients[0], model.NewWriteOnly(model.TxnID{},
		model.Write{Object: x0, Value: "prof-w0"}, model.Write{Object: x1, Value: "prof-w1"}), 200_000)
	prof.MultiWrite = wres.OK()
	if !prof.MultiWrite {
		// Write the objects individually so reads have fresh data.
		r1 := d.RunTxn(d.Clients[0], model.NewWriteOnly(model.TxnID{}, model.Write{Object: x0, Value: "prof-s0"}), 200_000)
		r2 := d.RunTxn(d.Clients[0], model.NewWriteOnly(model.TxnID{}, model.Write{Object: x1, Value: "prof-s1"}), 200_000)
		if !r1.OK() || !r2.OK() {
			return prof, fmt.Errorf("spec: single writes failed under %s", p.Name())
		}
	}
	d.Settle(200_000)

	// Read-only transaction measurement: several ROTs from a different
	// client, over fair and random schedules.
	scheds := []sim.Scheduler{&sim.RoundRobin{}, sim.NewRandom(cfg.Seed + 101), sim.NewRandom(cfg.Seed + 202)}
	for _, sched := range scheds {
		from := d.Kernel.Trace().Len()
		res := d.RunTxnWith(d.Clients[1], model.NewReadOnly(model.TxnID{}, x0, x1), sched, 200_000)
		if res == nil || !res.OK() {
			return prof, fmt.Errorf("spec: ROT did not complete under %s", p.Name())
		}
		m := MeasureResult(d, from, res)
		if m.Rounds > prof.ROTRounds {
			prof.ROTRounds = m.Rounds
		}
		if m.MaxValuesPerObject > prof.ValuesPerObject {
			prof.ValuesPerObject = m.MaxValuesPerObject
		}
		if m.MaxValuesPerMsg > prof.ValuesPerMsg {
			prof.ValuesPerMsg = m.MaxValuesPerMsg
		}
		if m.ForeignValues {
			prof.ForeignValues = true
		}
		if m.Deferred {
			prof.NonBlocking = false
		}
		d.Settle(200_000)
	}

	// --- randomized concurrent workloads for consistency checking ---
	for _, seed := range seeds {
		prof.Trials++
		wd := protocol.Deploy(p, protocol.Config{
			Servers: cfg.Servers, ObjectsPerServer: cfg.ObjectsPerServer,
			Replication: cfg.Replication, Clients: 2, Seed: seed, Latency: cfg.Latency,
		})
		if err := wd.InitAll(200_000); err != nil {
			return prof, err
		}
		// The init transactions are recorded in the history, so their
		// values must NOT double as declared initials (a written value
		// colliding with an initial value is ambiguous for the checker):
		// reads of the init values get reads-from edges to the recorded
		// init transactions instead, which carries the same causality.
		// The declared initials are sentinels nothing ever writes or
		// returns — in particular NOT model.Bottom, so a read that came
		// back empty (a lost-write bug) is still refuted as dangling
		// rather than aliasing the initial value.
		sentinels := make(map[string]model.Value)
		for _, obj := range wd.Place.Objects() {
			sentinels[obj] = model.Value("pre_" + obj)
		}
		h := history.New(sentinels)
		// Record the init transactions so causality through them counts.
		for i, obj := range wd.Place.Objects() {
			h.Add(&history.TxnRecord{
				ID:     model.TxnID{Client: string(wd.Inits[i]), Seq: 1},
				Client: string(wd.Inits[i]),
				Writes: []model.Write{{Object: obj, Value: protocol.InitialValue(obj)}},
			})
		}
		sched := sim.NewRandom(seed * 13)
		c0, c1 := wd.Clients[0], wd.Clients[1]
		ox0, ox1 := wd.Place.Objects()[0], wd.Place.Objects()[1]

		mkWrite := func(tag string) *model.Txn {
			if prof.MultiWrite {
				return model.NewWriteOnly(model.TxnID{},
					model.Write{Object: ox0, Value: model.Value(tag + "-0")},
					model.Write{Object: ox1, Value: model.Value(tag + "-1")})
			}
			return model.NewWriteOnly(model.TxnID{}, model.Write{Object: ox0, Value: model.Value(tag + "-0")})
		}
		runPhase(wd, sched, h, []invocation{
			{c0, model.NewReadOnly(model.TxnID{}, ox0, ox1)},
			{c1, mkWrite(fmt.Sprintf("s%d-a", seed))},
		}, 200_000)
		runPhase(wd, sched, h, []invocation{
			{c0, mkWrite(fmt.Sprintf("s%d-b", seed))},
			{c1, model.NewReadOnly(model.TxnID{}, ox0, ox1)},
		}, 200_000)
		runPhase(wd, sched, h, []invocation{
			{c0, model.NewReadOnly(model.TxnID{}, ox0, ox1)},
			{c1, model.NewReadOnly(model.TxnID{}, ox1)},
		}, 200_000)

		if v := history.CheckCausal(h); !v.OK {
			prof.CausalOK = false
			if prof.CausalReason == "" {
				prof.CausalReason = fmt.Sprintf("seed %d: %s", seed, v.Reason)
			}
		}
		if v := history.CheckSerializable(h); !v.OK {
			prof.SerOK = false
		}
		if v := history.CheckStrictSerializable(h); !v.OK {
			prof.StrictOK = false
		}
		if v := history.CheckReadAtomic(h); !v.OK {
			prof.ReadAtomicOK = false
		}
	}
	return prof, nil
}
