package protocol

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sim"
)

// Config describes a deployment.
type Config struct {
	// Servers and ObjectsPerServer size the disjoint placement; ignored
	// when Place is set.
	Servers          int
	ObjectsPerServer int
	// Replication > 1 builds a partially replicated placement instead
	// (Replication replicas per object over Servers servers hosting
	// Servers*ObjectsPerServer objects total).
	Replication int
	// Place overrides the computed placement entirely.
	Place *Placement
	// Clients is the number of workload clients ("c0", "c1", ...).
	Clients int
	// Readers is the number of reserved probe/adversary reader clients
	// ("r0", ...). Defaults to 4 (the paper needs at least four clients).
	Readers int
	// Seed seeds the kernel RNG (link latencies, random schedules).
	Seed int64
	// Latency overrides the kernel latency model. LatencyFloor declares
	// its lower bound (used to size the sharded runner's conservative
	// windows); it is ignored when Latency is nil — the default model's
	// floor (500µs) is declared automatically.
	Latency      sim.LatencyModel
	LatencyFloor sim.Time
	// Topology selects a geo-asymmetric deployment: sites, intra- vs
	// cross-site latency distributions and their declared per-link
	// floors (see Topology). Ignored when Latency is set — an explicit
	// model plus its LatencyFloor wins. Nil is the uniform deployment.
	Topology *Topology
}

// Deployment is a protocol instantiated on a kernel: servers, workload
// clients, reserved readers and the initializing clients (one per object,
// per the paper's T_in transactions).
type Deployment struct {
	Kernel  *sim.Kernel
	Proto   Protocol
	Place   *Placement
	Clients []sim.ProcessID
	Readers []sim.ProcessID
	Inits   []sim.ProcessID // cin0, cin1, ... one per object
	// Topo is the deployed topology (nil for the uniform deployment).
	// The driver's shard striping consults it so each shard stays
	// single-site and cross-site links retain their wider lookahead.
	Topo *Topology
}

// Deploy builds a deployment.
func Deploy(p Protocol, cfg Config) *Deployment {
	if cfg.Servers == 0 {
		cfg.Servers = 2
	}
	if cfg.ObjectsPerServer == 0 {
		cfg.ObjectsPerServer = 1
	}
	if cfg.Clients == 0 {
		cfg.Clients = 2
	}
	if cfg.Readers == 0 {
		cfg.Readers = 4
	}
	pl := cfg.Place
	if pl == nil {
		if cfg.Replication > 1 {
			pl = Replicated(cfg.Servers, cfg.Servers*cfg.ObjectsPerServer, cfg.Replication)
		} else {
			pl = Disjoint(cfg.Servers, cfg.ObjectsPerServer)
		}
	}
	topo := cfg.Topology
	lat := cfg.Latency
	if lat != nil {
		topo = nil // an explicit model wins over a topology
	} else if topo != nil {
		lat = topo.Latency()
	}
	k := sim.NewKernel(cfg.Seed, lat)
	switch {
	case topo != nil:
		// Floors are declared below, after the process set is complete.
	case cfg.Latency == nil:
		// The default model is uniform [500µs, 1500µs]; declare its floor
		// so sharded stepping gets full-width windows.
		k.SetLatencyFloor(500)
	default:
		k.SetLatencyFloor(cfg.LatencyFloor)
	}
	d := &Deployment{Kernel: k, Proto: p, Place: pl, Topo: topo}
	// Recovery hooks for lossy crashes (nemesis layer): a process that
	// implements sim.Recoverable rebuilds its own durable state; otherwise
	// a lossy restart yields a factory-fresh replacement — all volatile
	// state gone, exactly the fault model of an unreplicated in-memory
	// store.
	recoverServer := func(sid sim.ProcessID) func(sim.Process) sim.Process {
		return func(old sim.Process) sim.Process {
			if r, ok := old.(sim.Recoverable); ok {
				return r.Recover()
			}
			return p.NewServer(sid, pl)
		}
	}
	recoverClient := func(id sim.ProcessID) func(sim.Process) sim.Process {
		return func(old sim.Process) sim.Process {
			if r, ok := old.(sim.Recoverable); ok {
				return r.Recover()
			}
			return p.NewClient(id, pl)
		}
	}
	for _, sid := range pl.Servers() {
		k.Add(p.NewServer(sid, pl))
		k.SetRecovery(sid, recoverServer(sid))
		// Replacement hook (reconfiguration): a fresh process adopts this
		// server's shard and catches up before serving (sync.go). The
		// kernel is a hook parameter, so deployment snapshots replay
		// replacements against their own copy.
		sid := sid
		k.SetReplacement(sid, func(kk *sim.Kernel, old sim.Process, lose bool) (sim.Process, sim.SyncStats) {
			return d.AdoptShard(kk, sid, old, lose)
		})
	}
	for i := 0; i < cfg.Clients; i++ {
		id := sim.ProcessID(fmt.Sprintf("c%d", i))
		k.Add(p.NewClient(id, pl))
		k.SetRecovery(id, recoverClient(id))
		d.Clients = append(d.Clients, id)
	}
	for i := 0; i < cfg.Readers; i++ {
		id := sim.ProcessID(fmt.Sprintf("r%d", i))
		k.Add(p.NewClient(id, pl))
		k.SetRecovery(id, recoverClient(id))
		d.Readers = append(d.Readers, id)
	}
	for i := range pl.Objects() {
		id := sim.ProcessID(fmt.Sprintf("cin%d", i))
		k.Add(p.NewClient(id, pl))
		k.SetRecovery(id, recoverClient(id))
		d.Inits = append(d.Inits, id)
	}
	if topo != nil {
		topo.DeclareFloors(k)
	}
	return d
}

// At rebinds the deployment metadata to another kernel (typically a
// Snapshot of the original); processes are looked up by ID.
func (d *Deployment) At(k *sim.Kernel) *Deployment {
	c := *d
	c.Kernel = k
	return &c
}

// Client returns the client process with the given ID.
func (d *Deployment) Client(id sim.ProcessID) Client {
	cl, ok := d.Kernel.Process(id).(Client)
	if !ok {
		panic(fmt.Sprintf("protocol: %s is not a client", id))
	}
	return cl
}

// Invoke submits a transaction at a client and annotates the trace. In
// load mode the annotation is only counted, so its note is not formatted.
func (d *Deployment) Invoke(id sim.ProcessID, t *model.Txn) model.TxnID {
	tid := d.Client(id).Invoke(t)
	note := ""
	if d.Kernel.Recording() {
		note = t.String()
	}
	d.Kernel.Annotate(sim.EvInvoke, id, note)
	return tid
}

// Participants returns all servers plus the given clients — the allowed
// set for restricted ("solo") runs.
func (d *Deployment) Participants(clients ...sim.ProcessID) []sim.ProcessID {
	out := d.Place.Servers()
	out = append(out, clients...)
	return out
}

// RunTxn invokes t at the client and drives the whole system round-robin
// until the transaction completes (or maxEvents elapse). It returns the
// result, or nil if the transaction did not complete.
func (d *Deployment) RunTxn(id sim.ProcessID, t *model.Txn, maxEvents int) *model.Result {
	tid := d.Invoke(id, t)
	cl := d.Client(id)
	sim.Run(d.Kernel, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !cl.Busy() }, maxEvents)
	res := cl.Finished(tid)
	if res != nil {
		d.Kernel.Annotate(sim.EvResponse, id, t.ID.String())
	}
	return res
}

// RunTxnWith is RunTxn under an arbitrary scheduler.
func (d *Deployment) RunTxnWith(id sim.ProcessID, t *model.Txn, sched sim.Scheduler, maxEvents int) *model.Result {
	tid := d.Invoke(id, t)
	cl := d.Client(id)
	sim.Run(d.Kernel, sched, func(*sim.Kernel) bool { return !cl.Busy() }, maxEvents)
	res := cl.Finished(tid)
	if res != nil {
		d.Kernel.Annotate(sim.EvResponse, id, t.ID.String())
	}
	return res
}

// Settle drains the system to quiescence (bounded), letting replication
// and stabilization traffic finish.
func (d *Deployment) Settle(maxEvents int) { sim.Drain(d.Kernel, maxEvents) }

// InitialValue returns the conventional initial value written into obj by
// the initializing transactions ("xin<obj>").
func InitialValue(obj string) model.Value { return model.Value("xin_" + obj) }

// IsInitClient reports whether the client ID names one of the deployment's
// initializing clients (cin0, cin1, ...). Timestamp-ordered protocols use
// this to stamp the initializing writes strictly below all others.
func IsInitClient(id sim.ProcessID) bool {
	return len(id) >= 3 && id[:3] == "cin"
}

// InitAll runs the paper's initializing transactions: for every object
// X_i, client cin_i writes the initial value, then the system settles so
// the values are visible (configuration Q_0 / QE_0).
func (d *Deployment) InitAll(maxEvents int) error {
	objs := d.Place.Objects()
	for i, obj := range objs {
		t := model.NewWriteOnly(model.TxnID{}, model.Write{Object: obj, Value: InitialValue(obj)})
		res := d.RunTxn(d.Inits[i], t, maxEvents)
		if !res.OK() {
			return fmt.Errorf("protocol: init write of %s failed: %s", obj, errOf(res))
		}
	}
	d.Settle(maxEvents)
	d.Kernel.Annotate(sim.EvMark, "", "Q0: initial values visible")
	return nil
}

func errOf(r *model.Result) string {
	if r == nil {
		return "did not complete"
	}
	return r.Err
}

// Initials returns the initial-value map for history checking.
func (d *Deployment) Initials() map[string]model.Value {
	out := make(map[string]model.Value)
	for _, obj := range d.Place.Objects() {
		out[obj] = InitialValue(obj)
	}
	return out
}
