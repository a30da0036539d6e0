package fedzkt

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Config parameterises a FedZKT run. Zero fields take the documented
// defaults via withDefaults.
type Config struct {
	// Rounds is the number of communication rounds T.
	Rounds int
	// LocalEpochs is T_l, the local training epochs per round.
	LocalEpochs int
	// DistillIters is n_D, the server distillation iterations per phase
	// per round (the paper uses n_G = n_S).
	DistillIters int
	// StudentSteps is the number of global-model (min) steps per
	// generator (max) step in the adversarial phase. The paper's
	// Algorithm 3 interleaves 1:1 with n_G = n_S = 200..500 iterations;
	// at the scaled-down iteration budgets used here, a ratio > 1
	// (as in data-free adversarial distillation practice) keeps the
	// student from being outrun by the generator. Default 1 (faithful).
	StudentSteps int
	// DistillBatch is the generator/distillation batch size (paper: 256;
	// scaled default 32).
	DistillBatch int
	// BatchSize is the device-side training batch size.
	BatchSize int
	// ZDim is the generator's noise dimensionality.
	ZDim int
	// DeviceLR, ServerLR are SGD learning rates (paper: 0.01).
	DeviceLR, ServerLR float64
	// GenLR is the generator's Adam learning rate (paper: 1e-3).
	GenLR float64
	// Momentum and WeightDecay apply to device-side SGD.
	Momentum, WeightDecay float64
	// Loss selects the zero-shot disagreement loss (default LossSL).
	Loss LossKind
	// ProxMu scales the ℓ2 proximal term of Eq. 9 (0 disables).
	ProxMu float64
	// ActiveFraction is the straggler parameter p: the fraction of
	// devices participating each round (default 1). Ignored when SampleK
	// is set.
	ActiveFraction float64
	// SampleK, when positive, selects exactly min(SampleK, devices)
	// participants per round (uniform-K partial participation, the
	// device-scale regime), overriding ActiveFraction.
	SampleK int
	// Workers bounds the round scheduler's worker pool and the server's
	// teacher, transfer-back and evaluation fan-outs (0 = GOMAXPROCS); 1
	// runs them inline on the caller — the reference scheduler the
	// determinism tests compare against. Kernel row blocks fan out on
	// package tensor's gang, sized by GOMAXPROCS, either way.
	Workers int
	// FailureRate injects per-device-round failures with this
	// probability, deterministically in (Seed, round, device).
	FailureRate float64
	// TeachersPerIter, when positive, makes every server distillation
	// iteration draw that many replica teachers for the ensemble loss —
	// instead of forwarding every registered replica — and transfer
	// knowledge back into a window of at most as many of the round's
	// participants (the devices whose uploads it absorbed, late ones
	// included at PipelineDepth ≥ 1: the only ones that download), rotating
	// over them across iterations and rounds, so the per-iteration server
	// cost is O(TeachersPerIter) rather than O(devices). 0 (the default)
	// keeps the paper-exact full-ensemble semantics, byte-identical to the
	// pre-cohort server, transfer-back into every replica included.
	TeachersPerIter int
	// PipelineDepth is the round engine's bounded staleness (engine.go).
	// 0 (the default) is the paper-exact synchronous barrier: each round
	// runs local phase → absorb → distill → download to completion before
	// the next round starts. At depth D ≥ 1 the server stage runs on its
	// own goroutine with up to D server rounds outstanding: round r+1's
	// local phase launches as soon as round r's uploads are staged, while
	// the server distills round r concurrently. Devices then train on
	// bounded-stale parameters — round r's local phase starts from the
	// download published after round r−1−D — which diverges from the
	// paper's barrier semantics but hides the server phase behind device
	// work. For a fixed depth and seed, metrics are byte-identical across
	// worker counts.
	PipelineDepth int
	// ReplicaStore selects where server replica slots live: "memory"
	// (also the "" default — every slot resident, the pre-tier behaviour)
	// or "spill" (an LRU hot set per architecture cohort backed by a
	// fixed-stride spill file each, bounding resident replica state by the
	// hot-set size instead of the device count — the million-device
	// regime). Stored bytes are identical either way, so exact-mode
	// fingerprints are byte-identical across store modes.
	ReplicaStore string
	// ReplicaShards is read by nothing.
	//
	// Deprecated: the server keeps one cohort per architecture.
	ReplicaShards int
	// HotSet bounds the resident entries of each cohort's hot set — one
	// cohort per architecture — and of each architecture's device store,
	// under the spill store. 0 sizes them automatically: a cohort's to the
	// full cohort in exact full-ensemble mode and to 2·TeachersPerIter (at
	// least 32) in sampled mode; a device store's to max(256, 2·SampleK).
	HotSet int
	// SpillDir hosts the spill files ("" = a private temp directory,
	// removed on Close).
	SpillDir string
	// VirtualDevices is read by nothing.
	//
	// Deprecated: a device's trained state rests only when it can outlive
	// its round (see Coordinator.release), and the device store is bounded
	// exactly when ReplicaStore is "spill".
	VirtualDevices bool
	// EvalDevices, when positive, evaluates per-device accuracy on only
	// the first EvalDevices devices instead of all of them (the scale
	// regime; DeviceAcc and MeanDeviceAcc cover exactly that subset).
	// 0 evaluates every device.
	EvalDevices int
	// StateCodec selects the state codec for server replica slots,
	// simulated upload/download payloads, and checkpoints: "float64" (the
	// identity encoding, also the "" default — byte-identical to the
	// pre-codec dense pipeline), "float16" (2 bytes/element), or "int8"
	// (per-tensor affine quantisation, 1 byte/element). Quantised codecs
	// cut resident server state up to 8× and wire traffic accounting
	// follows the codec's element width; in exchange every state that
	// crosses the wire or rests in a slot is rounded to the codec's grid,
	// which perturbs training (the codecs ablation reports the accuracy
	// delta).
	StateCodec string
	// GlobalArch names the server model architecture (default "global").
	GlobalArch string
	// Seed drives all randomness in the run.
	Seed uint64
	// ProbeGradNorm records the mean ‖∇ₓL‖ w.r.t. generated inputs each
	// round (Figure 2 instrumentation).
	ProbeGradNorm bool
	// EvalEvery evaluates models every EvalEvery rounds (default 1);
	// the final round is always evaluated.
	EvalEvery int
	// CheckpointDir, when set, enables durable checkpoints: after every
	// CheckpointEvery-th finalised round the coordinator writes an atomic
	// (temp + fsync + rename), CRC-trailed checkpoint file into the
	// directory, keeping the KeepCheckpoints most recent. A crashed run
	// restarted with Resume picks up from the latest intact file.
	CheckpointDir string
	// CheckpointEvery is the round cadence of durable checkpoints
	// (default 1 — every finalised round; the final round is always
	// checkpointed).
	CheckpointEvery int
	// KeepCheckpoints bounds how many checkpoint files CheckpointDir
	// retains (default 3). Older files are the rollback targets when the
	// newest is torn or corrupt.
	KeepCheckpoints int
	// Resume makes Run first load the latest intact checkpoint from
	// CheckpointDir (rolling back over corrupt files) and continue from
	// its round cursor. With no checkpoint present the run starts fresh.
	Resume bool
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 2
	}
	if c.DistillIters == 0 {
		c.DistillIters = 30
	}
	if c.StudentSteps == 0 {
		c.StudentSteps = 1
	}
	if c.DistillBatch == 0 {
		c.DistillBatch = 32
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ZDim == 0 {
		c.ZDim = 32
	}
	if c.DeviceLR == 0 {
		c.DeviceLR = 0.01
	}
	if c.ServerLR == 0 {
		c.ServerLR = 0.01
	}
	if c.GenLR == 0 {
		c.GenLR = 1e-3
	}
	if c.Loss == 0 {
		c.Loss = LossSL
	}
	if c.ActiveFraction == 0 {
		c.ActiveFraction = 1
	}
	if c.GlobalArch == "" {
		c.GlobalArch = "global"
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
	if c.CheckpointDir != "" {
		if c.CheckpointEvery == 0 {
			c.CheckpointEvery = 1
		}
		if c.KeepCheckpoints == 0 {
			c.KeepCheckpoints = 3
		}
	}
	return c
}

// Local is the on-device training configuration (Algorithm 2) this run
// gives every device, in process or in a transport assignment.
func (c Config) Local() fed.LocalConfig {
	return fed.LocalConfig{
		Epochs:      c.LocalEpochs,
		BatchSize:   c.BatchSize,
		LR:          c.DeviceLR,
		Momentum:    c.Momentum,
		WeightDecay: c.WeightDecay,
		ProxMu:      c.ProxMu,
	}
}

// Validate reports the first value out of range, unknown mode name or
// combination no engine supports, by field name. Zero fields are valid:
// they take the documented defaults. NewServer calls it before building
// anything, and cmd/fedzkt calls it on its parsed flags, so every way to
// build a federation — New, an Engine over a Server, the transport server
// — rejects the same configurations with the same words before any model
// is built.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Rounds", c.Rounds}, {"LocalEpochs", c.LocalEpochs}, {"DistillIters", c.DistillIters},
		{"StudentSteps", c.StudentSteps}, {"DistillBatch", c.DistillBatch}, {"BatchSize", c.BatchSize},
		{"SampleK", c.SampleK}, {"Workers", c.Workers}, {"TeachersPerIter", c.TeachersPerIter},
		{"PipelineDepth", c.PipelineDepth}, {"HotSet", c.HotSet},
		{"EvalDevices", c.EvalDevices}, {"EvalEvery", c.EvalEvery},
		{"CheckpointEvery", c.CheckpointEvery}, {"KeepCheckpoints", c.KeepCheckpoints},
	} {
		if f.v < 0 {
			return fmt.Errorf("fedzkt: negative %s %d", f.name, f.v)
		}
	}
	if !(0 <= c.ActiveFraction && c.ActiveFraction <= 1) {
		return fmt.Errorf("fedzkt: active fraction %v outside (0,1]", c.ActiveFraction)
	}
	if !(0 <= c.FailureRate && c.FailureRate < 1) {
		return fmt.Errorf("fedzkt: FailureRate %v outside [0,1)", c.FailureRate)
	}
	switch c.ReplicaStore {
	case "", ReplicaStoreMemory, ReplicaStoreSpill:
	default:
		return fmt.Errorf("fedzkt: unknown ReplicaStore %q (want %q or %q)", c.ReplicaStore, ReplicaStoreMemory, ReplicaStoreSpill)
	}
	if _, err := codec.Get(c.StateCodec); err != nil {
		return fmt.Errorf("fedzkt: %w", err)
	}
	if c.CheckpointDir == "" && c.Resume {
		return fmt.Errorf("fedzkt: Resume requires CheckpointDir")
	}
	// withDefaults fills the cadence only under a directory, so a cadence
	// without one was asked for by the caller.
	if c.CheckpointDir == "" && c.CheckpointEvery > 0 {
		return fmt.Errorf("fedzkt: CheckpointEvery %d requires CheckpointDir", c.CheckpointEvery)
	}
	return nil
}

// Coordinator orchestrates an in-process FedZKT federation: the round
// Engine over the Server holding F, G and the replicas, plus the devices,
// for which it is the engine's Fleet. Local phases execute on a sharded
// scheduler (internal/sched), so the federation can simulate N ≫ NumCPU
// devices with bounded concurrency.
type Coordinator struct {
	*Engine
	devices []*fed.Device
	pool    *sched.Pool
	// codec encodes every simulated upload/download payload (the server
	// shares the same codec for its replica slots).
	codec codec.Codec
	// resumed marks that Run already performed its Config.Resume load.
	resumed bool

	// rigs counts how the pool's per-worker device rigs (rig.go) served
	// module requests and lists their arenas; the rigs themselves live in
	// the pool's worker slots. Like the engine's payload buffers it is its
	// own allocation: the process-wide metrics registry keeps a pointer to
	// it until the next coordinator registers, and must pin no more of
	// this one than those arenas.
	rigs *rigStats

	// One device lifecycle: a device's state rests in devStore — one slot
	// store per architecture (newDevStore), keyed by the device's index
	// among that architecture's devices (devLocal) — or, for a follower,
	// in its server replica, and is its worker rig's module only while a
	// task or an evaluation runs (materialise, release). devCounters is its
	// own allocation for the reason rigs is:
	// the registry serves the stores' entry-buffer counts from it.
	devStore    map[string]*slotStore
	devLocal    []int
	devCounters *storeCounters
	// rests marks a run where a trained state can outlive its round —
	// at PipelineDepth ≥ 1 a device may train again before its download
	// lands — so release writes it into the device's slot and the task
	// stages an upload for the server stage to absorb. Otherwise no server
	// stage runs between the task and the barrier, and release writes the
	// trained state straight into the device's server replica, its one
	// copy: the upload only counts it, and Deliver makes the device follow
	// the replica before anything reads the device.
	rests bool
	// follows[id] marks a device whose state is its server replica: after
	// a download of the replica as it still is, the device keeps no state
	// of its own (its slot is dropped) and reads the replica at
	// materialisation, until it trains again or the server is about to
	// overwrite the replica, when unfollow copies it over first. wrote[id]
	// is the server round of the last write to device id's replica, which
	// unfollow stamps before the write, and trainedIn[id] the round of the
	// device's last completed task: Deliver follows only while neither is
	// later than the delivered round (at depth 0 always). followMu orders
	// unfollow, Deliver's check-and-follow and a follower's whole read of
	// its replica against each other, so a server stage racing the device
	// tasks (PipelineDepth ≥ 1) never writes a replica a follower is
	// reading or has yet to copy.
	follows          []bool
	wrote, trainedIn []int32
	followMu         sync.Mutex

	closeOnce sync.Once
	closeErr  error
}

// New builds a coordinator over dataset ds with one device per shard,
// assigning architectures archs[i] (cycled if shorter than shards).
func New(cfg Config, ds *data.Dataset, archs []string, shards [][]int) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		return nil, fmt.Errorf("fedzkt: no device shards")
	}
	if len(archs) == 0 {
		return nil, fmt.Errorf("fedzkt: no architectures")
	}
	in := model.Shape{C: ds.C, H: ds.H, W: ds.W}
	// NewServer validates the configuration before it builds anything, so
	// it goes first: at device scale, constructing a pool and a thousand
	// models just to reject a bad option would waste seconds.
	server, err := NewServer(cfg, in, ds.Classes)
	if err != nil {
		return nil, err
	}
	rigs := &rigStats{}
	pool, err := sched.NewPool(sched.Options{
		Workers:     cfg.Workers,
		FailureRate: cfg.FailureRate,
		FailureSeed: cfg.Seed ^ 0xFA117A1E,
		// One device rig per pool worker, created on the worker's first
		// task: every device task running on a worker trains in the rig's
		// live module and draws its activations, backward scratch, batch
		// and momentum buffers from the rig's arenas, so concurrent devices
		// never share scratch and a warmed-up local phase allocates
		// (almost) nothing. A rig never changes values — only where buffers
		// live — so round outcomes stay bit-identical for any worker count.
		WorkerScratch: func() any {
			return newDeviceRig(func(arch string) (nn.Module, error) {
				// A rig module always has a device's state installed
				// before use, so its own build seed is arbitrary.
				return model.Build(arch, in, ds.Classes, tensor.NewRand(cfg.Seed+3000))
			}, rigs)
		},
	})
	if err != nil {
		_ = server.Close()
		return nil, fmt.Errorf("fedzkt: %w", err)
	}
	c := &Coordinator{pool: pool, codec: server.Codec(), rigs: rigs,
		devStore: make(map[string]*slotStore), devCounters: &storeCounters{},
		rests: cfg.PipelineDepth > 0}
	if c.Engine, err = NewEngine(server, ds, c); err != nil {
		_ = server.Close()
		return nil, err
	}
	server.cohorts.beforeWrite = c.unfollow
	registerFleetMetrics(obs.Default(), rigs, &server.cohorts.counters, c.devCounters)
	pool.RegisterMetrics(obs.Default())
	// Every per-device slice is sized once for the whole fleet, so a
	// million registrations allocate what they keep rather than the
	// append growth of seven slices.
	n := len(shards)
	count := make(map[string]int)
	for i := range shards {
		count[archs[i%len(archs)]]++
	}
	server.cohorts.reserve(n, count)
	c.devices = make([]*fed.Device, 0, n)
	c.devLocal, c.follows = make([]int, 0, n), make([]bool, 0, n)
	c.wrote, c.trainedIn = make([]int32, 0, n), make([]int32, 0, n)
	perArch := make(map[string]int)
	for i := range shards {
		arch := archs[i%len(archs)]
		if len(shards[i]) == 0 {
			_ = c.Close()
			return nil, fmt.Errorf("fedzkt: device %d has an empty shard", i)
		}
		if err := c.register(i, arch, perArch[arch]); err != nil {
			_ = c.Close()
			return nil, err
		}
		perArch[arch]++
		c.devices = append(c.devices, fed.NewDevice(i, arch, nil, data.NewSubset(ds, shards[i])))
	}
	return c, nil
}

// register files device i, the local-th of its architecture, with the
// server — it announces its architecture, and the server files the replica
// into the matching architecture cohort — and makes its architecture's
// device store. Neither side builds anything: until it is first written, a
// device's state and its replica are its seeded build, which a virgin slot
// is defined as (see the virgin rule in replicastore.go), and neither store
// holds anything for it.
func (c *Coordinator) register(i int, arch string, local int) error {
	id, err := c.server.Register(arch, nil)
	if err != nil {
		return err
	}
	if id != i {
		return fmt.Errorf("fedzkt: device id mismatch: %d != %d", id, i)
	}
	if _, ok := c.devStore[arch]; !ok {
		st, err := c.newDevStore(arch)
		if err != nil {
			return err
		}
		c.devStore[arch] = st
	}
	c.devLocal = append(c.devLocal, local)
	c.follows = append(c.follows, false)
	c.wrote = append(c.wrote, 0)
	c.trainedIn = append(c.trainedIn, 0)
	return nil
}

// newDevStore makes the store where devices of architecture arch rest —
// the device side's one choice of bound, as cohortFor is the server's:
// float64, so a state at rest is never quantised whatever the run's codec,
// and bounded by HotSet over a spill file in the server's spill directory
// exactly when the replicas are, else unbounded. Either way a device
// that was never written holds no state there, and materialise re-seeds
// the module in place; a follower holds none either, and materialise reads
// its replica.
func (c *Coordinator) newDevStore(arch string) (*slotStore, error) {
	sig := c.server.cohorts.sigs[arch]
	exact, err := codec.Get(codec.Float64)
	if err != nil {
		return nil, err
	}
	dir := c.server.cohorts.spillDir
	if dir == "" {
		return newSlotStore(exact, sig, "", nil, nil, c.devCounters), nil
	}
	hotSet := func() int {
		if c.cfg.HotSet > 0 {
			return c.cfg.HotSet
		}
		// Auto: cover one round's participants with slack, bounded below
		// so tiny federations never thrash.
		return max(2*c.cfg.SampleK, 256)
	}
	return newSlotStore(exact, sig, filepath.Join(dir, "dev-"+arch+".spill"), hotSet, nil, c.devCounters), nil
}

// materialise makes the worker rig's module for d's architecture hold d's
// state at rest and sets d.Model to it, until release: the slot's state —
// for a follower, a copy of its server replica — or for a device that
// holds none (never written, or following a virgin replica) its seeded
// initial state, re-drawn in place — bit-identical to the device's seeded
// build. held reports a stored state. Runs on scheduler workers and
// between-round fan-outs; the stores serialise slot access, and a follower
// reads its replica under followMu, so a racing server write waits in
// unfollow until the read is done. After an error nothing is to be
// released.
func (c *Coordinator) materialise(rig *deviceRig, d *fed.Device) (held bool, err error) {
	slot, err := rig.module(d.Arch)
	if err == nil {
		c.followMu.Lock()
		if c.follows[d.ID] {
			held, err = c.server.cohorts.readInto(c.server.cohorts.devices[d.ID], slot.sd)
			c.followMu.Unlock()
		} else {
			// Only Deliver, never concurrent with a task, makes the device
			// follow again, so its own slot is its state.
			c.followMu.Unlock()
			held, err = c.devStore[d.Arch].checkout(c.devLocal[d.ID], slot)
		}
	}
	if err == nil && !held {
		err = c.server.reseed(slot.module, d.ID)
	}
	if err != nil {
		return false, fmt.Errorf("fedzkt: materialising device %d: %w", d.ID, err)
	}
	d.Model = slot.module
	return held, nil
}

// release ends d's materialisation; the module stays with the rig. After
// a finished task the device stops following its replica. When its
// trained state can outlive the round (rests) the state goes into the
// device's slot, its upload staged beside it. Otherwise the slot is
// dropped and the state is installed in the device's server replica —
// through the cohort's layout check and beforeWrite hook, and noted as
// absorbed — which Deliver makes the device follow before anything reads
// it. After an evaluation or a task that did not finish, the device's
// state is left as it was, a virgin slot virgin.
func (c *Coordinator) release(rig *deviceRig, d *fed.Device, finished bool) error {
	d.Model = nil
	if !finished {
		return nil
	}
	// Stop following before the slot or the replica is written, so
	// unfollow does not copy the replica over the trained state.
	c.followMu.Lock()
	c.follows[d.ID] = false
	c.followMu.Unlock()
	st := c.devStore[d.Arch]
	if c.rests {
		return st.release(c.devLocal[d.ID], rig.modules[d.Arch], true)
	}
	st.drop(c.devLocal[d.ID])
	if err := c.server.cohorts.installDict(c.server.cohorts.devices[d.ID], rig.modules[d.Arch].sd); err != nil {
		return fmt.Errorf("fedzkt: device %d upload: %w", d.ID, err)
	}
	c.server.noteAbsorbed(d.ID)
	return nil
}

// follow makes d's state its server replica: its own slot gives up
// whatever it held. The caller holds followMu or runs while no stage does.
func (c *Coordinator) follow(d *fed.Device) {
	c.devStore[d.Arch].drop(c.devLocal[d.ID])
	c.follows[d.ID] = true
}

// unfollow is the server store's beforeWrite hook. It stamps the write
// with the server stage's round, and a follower whose replica is about to
// be written gets its own copy of it first, through the payload path a
// download takes, and stops following. A virgin replica needs no copy —
// the device's own empty slot is its seeded state too. Runs on the
// goroutine doing the write, under followMu.
func (c *Coordinator) unfollow(id int) error {
	c.followMu.Lock()
	defer c.followMu.Unlock()
	c.wrote[id] = c.serverRound
	if !c.follows[id] {
		return nil
	}
	ref := c.server.cohorts.devices[id]
	if !c.server.cohorts.virgin(ref) {
		d := c.devices[id]
		b, err := c.server.cohorts.appendPayload(ref, c.payloads.take(d.Arch))
		if err == nil {
			err = c.devStore[d.Arch].installPayload(c.devLocal[id], b)
		}
		c.payloads.give(d.Arch, b)
		if err != nil {
			return fmt.Errorf("fedzkt: device %d stops following its replica: %w", id, err)
		}
	}
	c.follows[id] = false
	return nil
}

// DeviceStoreStats snapshots the device stores, in the replicas' store
// mode: under "memory" every slot that holds a state is hot.
func (c *Coordinator) DeviceStoreStats() ReplicaStoreStats {
	mode := ReplicaStoreMemory
	if c.server.cohorts.spillDir != "" {
		mode = ReplicaStoreSpill
	}
	st := c.devCounters.snapshot(mode)
	for _, ds := range c.devStore {
		ds.addStats(&st)
	}
	return st
}

// DeviceRigStats reports how the pool's per-worker device rigs have
// served module requests (a device's task or evaluation) so far: by
// building a module — at most once per worker and architecture — or by
// reusing the worker's live one.
func (c *Coordinator) DeviceRigStats() (builds, reuses int64) {
	return c.rigs.builds.Load(), c.rigs.reuses.Load()
}

// Close releases the device stores and then the server, whose spill
// directory holds the device stores' files too, and detaches the server's
// beforeWrite hook: the process-wide metrics registry keeps the server
// reachable until the next federation registers, and through the hook it
// would keep every device store too. Idempotent.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.server.cohorts.beforeWrite = nil
		for _, ds := range c.devStore {
			if err := ds.close(); err != nil && c.closeErr == nil {
				c.closeErr = err
			}
		}
		if err := c.server.Close(); err != nil && c.closeErr == nil {
			c.closeErr = err
		}
	})
	return c.closeErr
}

// Devices exposes the coordinator's devices (read-only use intended).
func (c *Coordinator) Devices() []*fed.Device { return c.devices }

// Global exposes the server's global model F.
func (c *Coordinator) Global() nn.Module { return c.server.Global() }

// Generator exposes the server's generator G.
func (c *Coordinator) Generator() *model.Generator { return c.server.Generator() }

// Server exposes the server core (used by the networked runtime and
// inspection tooling).
func (c *Coordinator) Server() *Server { return c.server }

// Pool exposes the round scheduler's pool (for its cumulative stats).
func (c *Coordinator) Pool() *sched.Pool { return c.pool }

// Run executes the remaining communication rounds (Algorithm 1) on the
// round engine and returns their per-round metrics history. A fresh
// coordinator starts at round 1; after a cancelled run (or LoadCheckpoint)
// Run resumes from the first unfinalised round, first reconciling every
// device to its server replica so both resume paths restart from the same
// well-defined state. A resume is consistent, not a bit-exact replay of an
// uninterrupted run: work the cancelled round already did — absorbed
// uploads, partial distillation progress, device epochs — is retained and
// the round is re-run on top of it (see SaveCheckpoint). ctx cancellation
// stops at the next stage boundary — including between distillation
// iterations — and returns the wrapped context error alongside the
// history of fully finalised rounds.
func (c *Coordinator) Run(ctx context.Context) (fed.History, error) {
	if c.cfg.Resume && !c.resumed {
		c.resumed = true
		if err := c.resumeFromDir(); err != nil {
			return nil, err
		}
	}
	if c.nextRound > 1 && c.nextRound <= c.cfg.Rounds {
		// Resuming mid-federation: a cancelled run may have left devices
		// ahead of the last finalised round (several rounds ahead at
		// depth ≥ 1, with no downloads applied). Restart them from the
		// server's latest knowledge instead.
		c.reconcileDevices()
	}
	return c.Engine.Run(ctx)
}

// reconcileDevices gives every device its server replica state — the
// canonical post-round state a download would have delivered — collapsing
// whatever in-flight local progress a cancelled round left behind: every
// device follows its replica outright, nothing is copied, and the write
// and task rounds Deliver compares start afresh. Runs while no stage does.
func (c *Coordinator) reconcileDevices() {
	for _, d := range c.devices {
		// Both sides still hold the seeded initial state (a virgin slot's
		// content is defined as exactly that), so the device downloaded
		// nothing — the skip that makes million-device resume O(touched
		// devices), not O(devices).
		seeded := c.server.cohorts.virgin(c.server.cohorts.devices[d.ID]) && (c.follows[d.ID] || c.devStore[d.Arch].virgin(c.devLocal[d.ID]))
		c.follow(d)
		c.wrote[d.ID], c.trainedIn[d.ID] = 0, 0
		if !seeded {
			d.Downloaded()
		}
	}
}

// EvaluateDevices implements Fleet: each device's state at rest,
// materialised in a worker rig's module, which at a depth-0 round boundary
// is exactly its state after the round. The pool is idle between depth-0
// rounds, so the fan-out borrows its rigs' warmed-up arenas and modules:
// ForEachWorker's worker indices are the pool's slot indices. It steps at
// BatchSize, the batch the rigs train at.
func (c *Coordinator) EvaluateDevices(ids []int) ([]float64, error) {
	accs := make([]float64, len(ids))
	var mu sync.Mutex
	var firstErr error
	sched.ForEachWorker(len(ids), c.cfg.Workers, func(i, w int) {
		rig := c.pool.WorkerScratch(w).(*deviceRig)
		d := c.devices[ids[i]]
		_, err := c.materialise(rig, d)
		if err == nil {
			accs[i] = fed.EvaluateArena(d.Model, c.ds, c.cfg.BatchSize, rig.step)
			err = c.release(rig, d, false)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("fedzkt: evaluating device %d: %w", d.ID, err)
			}
			mu.Unlock()
		}
	})
	return accs, firstErr
}

// Deliver implements Fleet: after a header-only layout check it makes one
// published state its device's, and marks it as the anchor of the device's
// next proximal term. The payload is byte for byte the device's replica as
// round left it. While no later server round has written that replica and
// the device has completed no task in a later round — always at depth 0 —
// the device drops its slot and follows the replica, which nothing writes
// before the device's next use but through unfollow: a state at rest
// exists once. Otherwise (depth ≥ 1, where the server stage races the
// device tasks) the replica no longer holds the payload, or will not once
// the device's upload lands in it, and the payload is installed in the
// slot, as float64. The check and the follow or install are one step
// under followMu.
func (c *Coordinator) Deliver(round, id int, p Payload) error {
	d := c.devices[id]
	defer c.payloads.give(d.Arch, p.Enc)
	err := c.server.CheckPayload(id, p.Enc)
	if err == nil {
		c.followMu.Lock()
		if r := int32(round); c.wrote[id] <= r && c.trainedIn[id] <= r {
			c.follow(d)
		} else {
			c.follows[id] = false
			err = c.devStore[d.Arch].installPayload(c.devLocal[id], p.Enc)
		}
		c.followMu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("fedzkt: device %d download: %w", id, err)
	}
	d.Downloaded()
	return nil
}

// UploadRejected implements Fleet: the uploads are the simulator's own,
// so a refused one is a bug and ends the run.
func (c *Coordinator) UploadRejected(_ Upload, err error) error { return err }

// CloseRound implements Fleet. Every device the round absorbed got its
// own architecture's state back, so the priced download traffic equals
// the upload traffic LocalPhase booked.
func (c *Coordinator) CloseRound(m *fed.RoundMetrics) error {
	m.BytesDown = m.BytesUp
	return nil
}

// LocalPhase implements Fleet: it runs Algorithm 2 on every sampled device
// via the sharded scheduler and returns the uploads of the devices that
// completed within the round, in ascending-id order, priced as the
// run's codec would carry them. Devices that are failure-injected, whose
// task panicked or that a cancelled ctx stopped drop out of this round's
// aggregation; any other task error ends the round, and every upload it
// staged goes back to the free list.
// Each task materialises its device in its worker's rig, trains it and
// releases it, so the encode stays off the engine's goroutine. Where
// trained states rest the task stages its upload in wire form — encoded
// with the run's codec, exactly the bytes a real uplink would carry — and
// uploads of tasks that did not complete are discarded. Otherwise release
// encodes the state straight into the device's replica slot and the
// upload is marked installed, with no payload: every task that runs to
// its end completes, so a round that reaches its barrier absorbs every
// state its tasks install. Each task touches only its own device, its
// replica and its worker's rig, so the round's outcome is identical for
// any worker count.
func (c *Coordinator) LocalPhase(ctx context.Context, round int, active []int, m *fed.RoundMetrics) ([]Upload, error) {
	cfg := c.cfg
	local := cfg.Local()
	// staged[pos] is written by task pos alone; RunRound returning
	// publishes it.
	staged := make([]Payload, len(active))
	tasks := make([]sched.Task, len(active))
	for pos, id := range active {
		pos, id := pos, id
		tasks[pos] = sched.Task{Device: id, Run: func(ctx context.Context) (err error) {
			rng := fed.LocalRNG(cfg.Seed, round, id)
			// The task owns its device and its worker's rig for the
			// duration of the run, so lending the rig's module and arenas
			// through the device is race-free.
			rig := sched.Scratch(ctx).(*deviceRig)
			d := c.devices[id]
			held, err := c.materialise(rig, d)
			if err != nil {
				return err
			}
			d.Scratch, d.TaskScratch = rig.step, rig.task
			finished := false
			defer func() {
				d.Scratch, d.TaskScratch = nil, nil
				rig.task.Reset()
				if rerr := c.release(rig, d, finished); err == nil {
					err = rerr
				}
			}()
			if held && !c.rests && local.ProxMu > 0 {
				// A device whose trained states do not rest keeps no
				// anchor between tasks. It needs none: the module now
				// holds exactly the device's last download, which is
				// captured into the rig's buffer.
				d.LendAnchor(rig.anchor(d.Arch, d.Model))
				d.Downloaded()
				defer d.LendAnchor(nil)
			}
			if _, err := d.LocalUpdate(local, rng); err != nil {
				return err
			}
			if c.rests {
				staged[pos], err = c.stageUpload(d)
			}
			finished = err == nil
			return err
		}}
	}
	uploads := make([]Upload, 0, len(active))
	results := c.pool.RunRound(ctx, round, tasks)
	for pos, r := range results {
		if r.Status != sched.StatusCompleted {
			// A dropped or failed task's staged upload goes nowhere.
			c.payloads.give(c.devices[r.Device].Arch, staged[pos].Enc)
		}
		switch r.Status {
		case sched.StatusCompleted:
			uploads = append(uploads, Upload{ID: r.Device, Round: round, Payload: staged[pos], installed: !c.rests})
			c.trainedIn[r.Device] = int32(round) // Deliver reads it on this goroutine
			m.BytesUp += fed.WireBytes(c.server.cohorts.devices[r.Device].cohort.sig.numel, c.codec.Width())
		case sched.StatusDropped:
			m.Dropped = append(m.Dropped, r.Device)
		case sched.StatusInjected:
			m.Injected = append(m.Injected, r.Device)
		case sched.StatusFailed:
			// A panicking device task (chaos-injected or a genuine bug in
			// one device's arithmetic) is a per-device fault, not a
			// process death: drop the device from this round's aggregation
			// and record the fault alongside the corrupt-replica faults.
			var pe *sched.PanicError
			if errors.As(r.Err, &pe) {
				m.Dropped = append(m.Dropped, r.Device)
				c.server.cohorts.noteFault(r.Device)
				continue
			}
			// The round ends here: every upload it staged goes back,
			// those already collected and those of later results.
			for _, u := range uploads {
				c.payloads.give(c.devices[u.ID].Arch, u.Enc)
			}
			for q := pos + 1; q < len(results); q++ {
				c.payloads.give(c.devices[results[q].Device].Arch, staged[q].Enc)
			}
			return nil, fmt.Errorf("fedzkt: local phase device %d: %w", r.Device, r.Err)
		}
	}
	return uploads, nil
}

// stageUpload captures d's trained state in wire form: the codec reads
// the live tensors straight into a recycled buffer.
func (c *Coordinator) stageUpload(d *fed.Device) (Payload, error) {
	enc, err := c.codec.Append(c.payloads.take(d.Arch), nn.CaptureState(d.Model))
	if err != nil {
		return Payload{}, fmt.Errorf("fedzkt: device %d upload: %w", d.ID, err)
	}
	return Payload{Enc: enc}, nil
}
