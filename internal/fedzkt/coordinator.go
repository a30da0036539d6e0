package fedzkt

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
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
	// SampleWeighted, with SampleK, weights client selection by shard
	// size instead of sampling uniformly.
	SampleWeighted bool
	// Workers bounds the round scheduler's worker pool (0 = GOMAXPROCS).
	Workers int
	// Sequential runs device tasks inline on the caller's goroutine —
	// the reference scheduler the determinism tests compare against.
	Sequential bool
	// RoundDeadline is the wall-clock budget of each round's local phase;
	// devices that have not finished when it expires are dropped from
	// that round's aggregation (0 disables).
	RoundDeadline time.Duration
	// FailureRate injects per-device-round failures with this
	// probability, deterministically in (Seed, round, device).
	FailureRate float64
	// TeachersPerIter, when positive, makes every server distillation
	// iteration draw that many replica teachers for the ensemble loss —
	// instead of forwarding every registered replica — and transfer
	// knowledge back into a same-sized rotating window of replicas, so the
	// per-iteration server cost is O(TeachersPerIter) rather than
	// O(devices). 0 (the default) keeps the paper-exact full-ensemble
	// semantics, byte-identical to the pre-cohort server.
	TeachersPerIter int
	// TeacherSampling selects how per-iteration teacher subsets are drawn
	// when TeachersPerIter is set: "uniform" (the default) draws uniformly
	// without replacement and averages teachers equally; "weighted" draws
	// proportionally to device data size and weights the ensemble
	// disagreement loss by data size too. "weighted" requires
	// TeachersPerIter > 0 — the exact full-ensemble mode is defined as
	// byte-identical to the pre-cohort server, which a weighted mean would
	// break.
	TeacherSampling string
	// CohortReplicas bounds how many live replica modules each
	// architecture cohort retains between distillation phases. 0 (the
	// default) sizes the pools automatically: TeachersPerIter live modules
	// per cohort in sampled mode, the full cohort in exact mode. Lower
	// values cap server memory at the cost of rebuilding modules when an
	// iteration needs more replicas resident than the bound.
	CohortReplicas int
	// PipelineDepth selects the round engine and its bounded staleness.
	// 0 (the default) is the paper-exact synchronous barrier: each round
	// runs localPhase → absorb → distill → download to completion before
	// the next round starts, byte-identical to the pre-pipeline
	// coordinator. Depth D ≥ 1 runs the staged pipelined engine: round
	// r+1's local phase launches on the scheduler as soon as round r's
	// uploads are staged, while the server distills round r concurrently,
	// with up to D server rounds outstanding. Devices then train on
	// bounded-stale parameters — round r's local phase starts from the
	// download published after round r−1−D — which diverges from the
	// paper's barrier semantics but hides the server phase behind device
	// work. For a fixed depth and seed, metrics are byte-identical across
	// worker counts.
	PipelineDepth int
	// ReplicaStore selects where server replica slots live: "memory"
	// (also the "" default — every slot resident, the pre-tier behaviour)
	// or "spill" (an LRU hot set per cohort shard backed by fixed-stride
	// spill files, bounding resident replica state by the hot-set size
	// instead of the device count — the million-device regime). Stored
	// bytes are identical either way, so exact-mode fingerprints are
	// byte-identical across store modes.
	ReplicaStore string
	// ReplicaShards shards the server's cohort store: shard s owns every
	// device with id ≡ s (mod N), with its own cohorts, module pools, hot
	// sets and spill files, and checkouts fan out shard-local on the
	// worker pool. 0 or 1 keeps a single shard; fingerprints are identical
	// at any shard count.
	ReplicaShards int
	// HotSet bounds the resident entries of each cohort shard's hot set
	// under the spill store (and the virtual-device store's per-arch hot
	// set). 0 sizes it automatically: the full cohort in exact
	// full-ensemble mode, a teacher-window multiple in sampled mode.
	HotSet int
	// SpillDir hosts the spill files ("" = a private temp directory,
	// removed on Close).
	SpillDir string
	// VirtualDevices simulates devices without keeping per-device live
	// models: a device's model is materialised from its seeded initial
	// state (or its last download, kept in a per-arch tiered store) only
	// while its local phase or evaluation runs, then evicted. Round
	// outcomes are byte-identical to live devices; requires
	// RoundDeadline = 0 (a straggler's partial local progress cannot
	// survive eviction).
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
	// which perturbs training (the scale sweep's codec table reports the
	// accuracy delta).
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

// Teacher-sampling policies for Config.TeacherSampling.
const (
	// TeacherSamplingUniform draws teacher subsets uniformly without
	// replacement and averages them equally (also the "" default).
	TeacherSamplingUniform = "uniform"
	// TeacherSamplingWeighted draws teacher subsets proportionally to
	// device data size and weights the ensemble loss by data size.
	TeacherSamplingWeighted = "weighted"
)

// validateCohorts checks the cohort/teacher-sampling configuration.
func (c Config) validateCohorts() error {
	if c.TeachersPerIter < 0 {
		return fmt.Errorf("fedzkt: negative TeachersPerIter %d", c.TeachersPerIter)
	}
	if c.CohortReplicas < 0 {
		return fmt.Errorf("fedzkt: negative CohortReplicas %d", c.CohortReplicas)
	}
	switch c.TeacherSampling {
	case "", TeacherSamplingUniform, TeacherSamplingWeighted:
	default:
		return fmt.Errorf("fedzkt: unknown TeacherSampling %q (want %q or %q)",
			c.TeacherSampling, TeacherSamplingUniform, TeacherSamplingWeighted)
	}
	if c.TeacherSampling == TeacherSamplingWeighted && c.TeachersPerIter == 0 {
		return fmt.Errorf("fedzkt: TeacherSampling %q requires TeachersPerIter > 0 (the exact full-ensemble mode is unweighted by definition)", c.TeacherSampling)
	}
	if !validStoreMode(c.ReplicaStore) {
		return storeModeError(c.ReplicaStore)
	}
	if c.ReplicaShards < 0 {
		return fmt.Errorf("fedzkt: negative ReplicaShards %d", c.ReplicaShards)
	}
	if c.HotSet < 0 {
		return fmt.Errorf("fedzkt: negative HotSet %d", c.HotSet)
	}
	if c.EvalDevices < 0 {
		return fmt.Errorf("fedzkt: negative EvalDevices %d", c.EvalDevices)
	}
	return nil
}

// poolWorkers is the worker bound for the run's parallel-for loops
// (server transfer-back, evaluation): 1 when the reference sequential
// scheduler is requested, else the configured pool size.
func (c Config) poolWorkers() int {
	if c.Sequential {
		return 1
	}
	return c.Workers
}

// Coordinator orchestrates an in-process FedZKT federation: the devices
// plus the Server holding F, G and the replicas. Rounds execute on a
// sharded scheduler (internal/sched), so the federation can simulate
// N ≫ NumCPU devices with bounded concurrency.
type Coordinator struct {
	cfg     Config
	ds      *data.Dataset
	devices []*fed.Device
	server  *Server
	pool    *sched.Pool
	sampler sched.Sampler
	// codec encodes every simulated upload/download payload (the server
	// shares the same codec for its replica slots).
	codec codec.Codec
	// nextRound is the first round the next Run call executes: 1 for a
	// fresh coordinator, advanced past every finalised round by Run, and
	// restored by LoadCheckpoint, so a cancelled run can be resumed.
	nextRound int
	// hist accumulates every finalised round's metrics across Run calls
	// (and across checkpoint save/load), so History covers the whole
	// federation even when the process crashed and resumed mid-way.
	hist fed.History
	// resumed marks that Run already performed its Config.Resume load.
	resumed bool

	// rigs counts how the pool's per-worker device rigs (rig.go) served
	// module requests; the rigs themselves live in the pool's worker slots.
	rigs *rigStats
	// payloads recycles the dense state copies that cross the simulated
	// wire on the identity-codec path (rig.go). Like rigs it is its own
	// allocation: the process-wide metrics registry keeps a pointer to it
	// until the next coordinator registers, and must not pin this one.
	payloads *payloadBuffers

	// Virtual-device mode (Config.VirtualDevices): device models exist
	// only while their local phase or evaluation runs, borrowed from the
	// worker's rig; between rounds a device is its last download in
	// devStore — one tiered store per architecture holding the wire
	// payload verbatim (the run codec's container; a float64 container on
	// the identity path). Decoding it into the rig's module yields exactly
	// the values a live device holds after the same download, so the
	// materialised model is bit-identical to a resident one. A device that
	// never downloaded has no entry: its state is its seeded initial
	// build, re-drawn into the rig's module in place.
	virtual       bool
	devStore      map[string]*tieredSlots
	devCounters   storeCounters
	devSpillDir   string
	devSpillOwned bool

	// prevStore is the last round-boundary replica-store snapshot, diffed
	// into each round's metrics.
	prevStore ReplicaStoreStats

	// metrics is the coordinator's registry view (obsinstr.go): per-round
	// counters and phase histograms on the live metrics endpoint. Purely
	// observational — fingerprinted arithmetic never reads it.
	metrics *fedMetrics

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
	if cfg.ActiveFraction < 0 || cfg.ActiveFraction > 1 {
		return nil, fmt.Errorf("fedzkt: active fraction %v outside (0,1]", cfg.ActiveFraction)
	}
	if cfg.SampleK < 0 {
		return nil, fmt.Errorf("fedzkt: negative SampleK %d", cfg.SampleK)
	}
	if cfg.PipelineDepth < 0 {
		return nil, fmt.Errorf("fedzkt: negative PipelineDepth %d", cfg.PipelineDepth)
	}
	if cfg.VirtualDevices && cfg.RoundDeadline > 0 {
		return nil, fmt.Errorf("fedzkt: VirtualDevices requires RoundDeadline = 0 (a deadline straggler's partial local progress cannot survive model eviction)")
	}
	// Validate the scheduler configuration before the expensive device
	// build: at device scale, constructing a thousand models just to
	// reject a bad option would waste seconds.
	sampler, err := buildSampler(cfg, shards)
	if err != nil {
		return nil, err
	}
	in := model.Shape{C: ds.C, H: ds.H, W: ds.W}
	rigs := &rigStats{}
	pool, err := sched.NewPool(sched.Options{
		Workers:       cfg.Workers,
		Sequential:    cfg.Sequential,
		RoundDeadline: cfg.RoundDeadline,
		FailureRate:   cfg.FailureRate,
		FailureSeed:   cfg.Seed ^ 0xFA117A1E,
		// One device rig per pool worker, created on the worker's first
		// task: every device task running on a worker draws its
		// activations, backward scratch, batch and momentum buffers from
		// that worker's arenas (and, for a virtual device, trains in the
		// rig's live module), so concurrent devices never share scratch and
		// a warmed-up local phase allocates (almost) nothing. A rig never
		// changes values — only where buffers live — so round outcomes
		// stay bit-identical for any worker count.
		WorkerScratch: func() any {
			return newDeviceRig(func(arch string) (nn.Module, error) {
				// A rig module always has a device's state installed
				// before use, so its own build seed is arbitrary.
				return model.Build(arch, in, ds.Classes, tensor.NewRand(cfg.Seed+3000))
			}, rigs)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fedzkt: %w", err)
	}
	server, err := NewServer(cfg, in, ds.Classes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, ds: ds, server: server, pool: pool, sampler: sampler, codec: server.Codec(), nextRound: 1,
		rigs: rigs, payloads: &payloadBuffers{}}
	c.metrics = newFedMetrics(obs.Default(), server, rigs, c.payloads)
	pool.RegisterMetrics(obs.Default())
	if cfg.VirtualDevices {
		if err := c.initVirtual(archs); err != nil {
			_ = server.Close()
			return nil, err
		}
	}
	for i := range shards {
		arch := archs[i%len(archs)]
		if len(shards[i]) == 0 {
			_ = c.Close()
			return nil, fmt.Errorf("fedzkt: device %d has an empty shard", i)
		}
		var dev *fed.Device
		var id int
		if cfg.VirtualDevices {
			// No model is built: the device materialises from its seeded
			// initial state on first participation, and the server's lazy
			// (nil-initial) registration defines the replica as exactly
			// that state — registration is O(1) per device under the
			// tiered store.
			dev = fed.NewDevice(i, arch, nil, data.NewSubset(ds, shards[i]))
			id, err = server.RegisterSized(arch, nil, len(shards[i]))
		} else {
			devModel, berr := model.Build(arch, in, ds.Classes, tensor.NewRand(cfg.Seed+uint64(1000+i)))
			if berr != nil {
				_ = c.Close()
				return nil, fmt.Errorf("fedzkt: device %d: %w", i, berr)
			}
			dev = fed.NewDevice(i, arch, devModel, data.NewSubset(ds, shards[i]))
			// Registration: the device announces its architecture, initial
			// parameters and data size; the server files the replica into
			// the matching architecture cohort.
			id, err = server.RegisterSized(arch, nn.CaptureState(devModel), len(shards[i]))
		}
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		if id != i {
			_ = c.Close()
			return nil, fmt.Errorf("fedzkt: device id mismatch: %d != %d", id, i)
		}
		c.devices = append(c.devices, dev)
	}
	return c, nil
}

// initVirtual sets up the virtual-device stores: one tiered store per
// architecture in use. Stores are created eagerly so the map is read-only
// once rounds run concurrently.
func (c *Coordinator) initVirtual(archs []string) error {
	c.virtual = true
	dir := c.cfg.SpillDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "fedzkt-devspill-*"); err != nil {
			return fmt.Errorf("fedzkt: creating device spill dir: %w", err)
		}
		c.devSpillOwned = true
	}
	c.devSpillDir = dir
	c.devStore = make(map[string]*tieredSlots)
	capFn := func() int {
		if c.cfg.HotSet > 0 {
			return c.cfg.HotSet
		}
		// Auto: cover one round's participants with slack, bounded
		// below so tiny federations never thrash.
		if k := 2 * c.cfg.SampleK; k > 256 {
			return k
		}
		return 256
	}
	// A never-downloaded device has no store entry to rebuild: its state is
	// re-seeded straight into a rig module (deviceModule), so the store is
	// only ever asked for slots it holds.
	init := func(id int) ([]byte, error) {
		return nil, fmt.Errorf("fedzkt: device %d has no stored download", id)
	}
	for _, arch := range archs {
		if _, ok := c.devStore[arch]; ok {
			continue
		}
		path := filepath.Join(dir, "dev-"+arch+".spill")
		c.devStore[arch] = newTieredSlots(path, capFn, init, &c.devCounters)
	}
	return nil
}

// deviceModule returns rig's live module for virtual device id's
// architecture holding the device's seeded initial state when it has
// never downloaded (enc nil), or — with the module's contents still
// unspecified — the stored payload of its last download for the caller
// to decode into it. Runs on scheduler workers and between-round
// fan-outs; the store serialises slot access internally.
func (c *Coordinator) deviceModule(rig *deviceRig, id int) (m nn.Module, enc []byte, err error) {
	d := c.devices[id]
	if m, err = rig.module(d.Arch); err != nil {
		return nil, nil, err
	}
	ts := c.devStore[d.Arch]
	if ts.virgin(id) {
		// Bit-identical to the build a resident device starts from.
		return m, nil, model.Reinit(m, tensor.NewRand(c.cfg.Seed+uint64(1000+id)))
	}
	enc, err = ts.get(id)
	return m, enc, err
}

// materialiseDevice installs device id's current state in the worker
// rig's live module for the duration of a task: the seeded initial state
// (and, like a resident device before its first download, no proximal
// anchor), or its last download through the download path, which also
// restores the anchor. The caller evicts the device when the task ends.
func (c *Coordinator) materialiseDevice(rig *deviceRig, id int) error {
	d := c.devices[id]
	m, enc, err := c.deviceModule(rig, id)
	if err != nil {
		return fmt.Errorf("fedzkt: materialising device %d: %w", id, err)
	}
	d.Model = m
	if enc == nil {
		return nil
	}
	if err := d.DownloadPayload(enc); err != nil {
		return fmt.Errorf("fedzkt: materialising device %d: %w", id, err)
	}
	return nil
}

// DeviceStoreStats snapshots the virtual-device store (zero-valued, mode
// "memory", when VirtualDevices is off).
func (c *Coordinator) DeviceStoreStats() ReplicaStoreStats {
	st := ReplicaStoreStats{Mode: ReplicaStoreMemory, Shards: 1}
	if !c.virtual {
		return st
	}
	st.Mode = ReplicaStoreSpill
	st.Hits = c.devCounters.hits.Load()
	st.Misses = c.devCounters.misses.Load()
	st.InitBuilds = c.devCounters.initBuilds.Load()
	st.Evictions = c.devCounters.evictions.Load()
	for _, ts := range c.devStore {
		ts.accumulateStats(&st)
	}
	return st
}

// DeviceRigStats reports how the pool's per-worker device rigs have
// served module requests (virtual-device materialisations and
// evaluations) so far: by building a module — at most once per worker and
// architecture — or by reusing the worker's live one. Both stay zero with
// resident devices.
func (c *Coordinator) DeviceRigStats() (builds, reuses int64) {
	return c.rigs.builds.Load(), c.rigs.reuses.Load()
}

// PayloadBufferStats reports how the dense upload and download copies of
// the identity-codec path were served so far: by building a buffer — at
// most as many as were ever in flight at once — or by reusing a returned
// one. Both stay zero under a quantised codec, whose payloads are encoded
// containers.
func (c *Coordinator) PayloadBufferStats() (built, reused int64) {
	return c.payloads.built.Load(), c.payloads.reused.Load()
}

// Close releases the server (spill files, prefetcher) and the
// virtual-device stores. Idempotent.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.closeErr = c.server.Close()
		for _, ts := range c.devStore {
			if err := ts.close(); err != nil && c.closeErr == nil {
				c.closeErr = err
			}
		}
		if c.devSpillOwned {
			if err := os.RemoveAll(c.devSpillDir); err != nil && c.closeErr == nil {
				c.closeErr = err
			}
		}
	})
	return c.closeErr
}

// buildSampler selects the client-sampling policy from the config:
// uniform-K or weighted-by-data when SampleK is set, otherwise the
// paper's active-fraction straggler model.
func buildSampler(cfg Config, shards [][]int) (sched.Sampler, error) {
	if cfg.SampleK > 0 {
		if cfg.SampleWeighted {
			weights := make([]int, len(shards))
			for i, s := range shards {
				weights[i] = len(s)
			}
			s, err := sched.NewWeightedByData(weights, cfg.SampleK)
			if err != nil {
				return nil, fmt.Errorf("fedzkt: %w", err)
			}
			return s, nil
		}
		s, err := sched.NewUniformK(cfg.SampleK)
		if err != nil {
			return nil, fmt.Errorf("fedzkt: %w", err)
		}
		return s, nil
	}
	if cfg.SampleWeighted {
		return nil, fmt.Errorf("fedzkt: SampleWeighted requires SampleK > 0")
	}
	s, err := sched.NewFraction(cfg.ActiveFraction)
	if err != nil {
		return nil, fmt.Errorf("fedzkt: %w", err)
	}
	return s, nil
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

// Sampler exposes the client-sampling policy in effect.
func (c *Coordinator) Sampler() sched.Sampler { return c.sampler }

// Run executes the remaining communication rounds (Algorithm 1) and
// returns their per-round metrics history. A fresh coordinator starts at
// round 1; after a cancelled run (or LoadCheckpoint) Run resumes from the
// first unfinalised round, first reconciling every device to its server
// replica so both resume paths restart from the same well-defined state.
// A resume is consistent, not a bit-exact replay of an uninterrupted
// run: work the cancelled round already did — absorbed uploads, partial
// distillation progress, device epochs — is retained and the round is
// re-run on top of it (see SaveCheckpoint).
//
// With PipelineDepth = 0 rounds execute the paper-exact synchronous
// barrier; with depth ≥ 1 the staged pipelined engine (engine.go)
// overlaps server distillation with the next round's local phase. ctx
// cancellation stops at the next stage boundary — including between
// distillation iterations — and returns the wrapped context error
// alongside the history of fully finalised rounds.
func (c *Coordinator) Run(ctx context.Context) (fed.History, error) {
	if c.cfg.Resume && !c.resumed {
		c.resumed = true
		if err := c.resumeFromDir(); err != nil {
			return nil, err
		}
	}
	if c.nextRound > 1 && c.nextRound <= c.cfg.Rounds {
		// Resuming mid-federation: a cancelled run may have left devices
		// ahead of the last finalised round (several rounds ahead under
		// the pipelined engine, with no downloads applied). Restart them
		// from the server's latest knowledge instead.
		if err := c.reconcileDevices(); err != nil {
			return nil, err
		}
	}
	if c.cfg.PipelineDepth > 0 {
		return c.runPipelined(ctx)
	}
	return c.runSync(ctx)
}

// reconcileDevices installs every device's server replica state into the
// device — the canonical post-round state a download would have
// delivered, through the same publish/apply path a download takes —
// collapsing whatever in-flight local progress a cancelled round left
// behind.
func (c *Coordinator) reconcileDevices() error {
	for _, d := range c.devices {
		if c.virtual {
			ref, err := c.server.cohorts.ref(d.ID)
			if err != nil {
				return fmt.Errorf("fedzkt: reconciling device %d: %w", d.ID, err)
			}
			if c.server.cohorts.virgin(ref) && c.devStore[d.Arch].virgin(d.ID) {
				// Both sides still hold the seeded initial state (a virgin
				// slot's content is defined as exactly that), so there is
				// nothing to copy — the skip that makes million-device
				// resume O(touched devices), not O(devices).
				continue
			}
		}
		p, _, err := c.publishDownload(d.ID)
		if err == nil {
			err = c.applyDownload(d.ID, p)
		}
		if err != nil {
			return fmt.Errorf("fedzkt: reconciling device %d: %w", d.ID, err)
		}
	}
	return nil
}

// roundSampler returns the client-sampling RNG positioned at c.nextRound:
// the stream is sequential across rounds, so a resumed run replays the
// draws of the already-finalised rounds to stay on the same sequence an
// uninterrupted run would see.
func (c *Coordinator) roundSampler() *rand.Rand {
	roundRNG := tensor.NewRand(c.cfg.Seed + 99)
	for r := 1; r < c.nextRound; r++ {
		c.sampler.Sample(len(c.devices), roundRNG)
	}
	return roundRNG
}

// runSync is the synchronous round engine (PipelineDepth = 0): the four
// stages of a round — localPhase, absorb, distill, download — run to
// completion before the next round starts, exactly the paper's barrier.
// Its arithmetic is pinned byte-for-byte by the determinism goldens.
func (c *Coordinator) runSync(ctx context.Context) (fed.History, error) {
	cfg := c.cfg
	hist := make(fed.History, 0, cfg.Rounds)
	roundRNG := c.roundSampler()
	for round := c.nextRound; round <= cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return hist, fmt.Errorf("fedzkt: run cancelled at round %d: %w", round, err)
		}
		// Chaos crash point: a process death before the round does any
		// work — the recovery baseline (resume re-runs this round).
		chaos.Crash(chaos.SiteCrashRoundStart)
		start := time.Now()
		m := fed.RoundMetrics{Round: round}
		roundSpan := tracer().Begin("fed", "round").WithRound(round)

		// 1. Select this round's participants (client-sampling policy).
		active := c.sampler.Sample(len(c.devices), roundRNG)
		m.Active = active

		// 2. On-device updates on the scheduler (Algorithm 2), then
		// upload. Devices that miss the deadline or are failure-injected
		// drop out of this round's aggregation.
		localStart := time.Now()
		localSpan := tracer().Begin("fed", "local_phase").WithRound(round).WithParent(roundSpan.ID())
		completed, uploads, err := c.localPhase(ctx, round, active, &m)
		localSpan.End()
		if err != nil {
			roundSpan.End()
			return hist, err
		}
		m.LocalElapsed = time.Since(localStart)
		if err := ctx.Err(); err != nil {
			roundSpan.End()
			return hist, fmt.Errorf("fedzkt: run cancelled at round %d: %w", round, err)
		}
		if err := c.absorbUploads(completed, uploads); err != nil {
			roundSpan.End()
			return hist, err
		}
		m.Absorbed = len(completed)

		// 3. Server update (Algorithm 3).
		serverStart := time.Now()
		distillSpan := tracer().Begin("fed", "server_distill").WithRound(round).WithParent(roundSpan.ID())
		gn, err := c.server.Distill(ctx, round)
		distillSpan.End()
		if err != nil {
			roundSpan.End()
			return hist, fmt.Errorf("fedzkt: round %d: %w", round, err)
		}
		m.ServerElapsed = time.Since(serverStart)
		m.InputGradNorm = gn

		// 4. Download: devices that completed the round receive their own
		// updated parameters (stragglers keep stale models).
		for _, id := range completed {
			p, numel, err := c.publishDownload(id)
			if err != nil {
				roundSpan.End()
				return hist, err
			}
			if err := c.applyDownload(id, p); err != nil {
				roundSpan.End()
				return hist, err
			}
			m.BytesDown += fed.WireBytes(numel, c.codec.Width())
		}

		// 5. Evaluate.
		if round%cfg.EvalEvery == 0 || round == cfg.Rounds {
			evalSpan := tracer().Begin("fed", "evaluate").WithRound(round).WithParent(roundSpan.ID())
			m.GlobalAcc = c.server.EvaluateGlobal(c.ds)
			m.DeviceAcc, err = c.deviceAccs()
			evalSpan.End()
			if err != nil {
				roundSpan.End()
				return hist, err
			}
			m.MeanDeviceAcc = fed.Mean(m.DeviceAcc)
		}
		c.finishRoundStats(&m)
		m.Elapsed = time.Since(start)
		roundSpan.End()
		c.metrics.observeRound(&m)
		hist = append(hist, m)
		c.hist = append(c.hist, m)
		c.nextRound = round + 1
		if err := c.maybeCheckpoint(round); err != nil {
			return hist, err
		}
		// Chaos crash point: a process death at the finalised round
		// boundary, after the durable checkpoint — the resume from here
		// must replay the rest of the run bit-exactly.
		chaos.Crash(chaos.SiteCrashRoundEnd)
	}
	return hist, nil
}

// finishRoundStats folds the round's replica-store activity into its
// metrics: the delta of the server store's counters since the last round
// boundary, plus the drained replica-fault ids. None of these fields are
// fingerprinted — store traffic depends on hot-set sizing and prefetch
// timing, which the arithmetic is independent of by construction.
func (c *Coordinator) finishRoundStats(m *fed.RoundMetrics) {
	// Drain in-flight prefetch hints first: a hint processed after this
	// snapshot would add reads to the cumulative counters that no round's
	// delta reports, and the per-round sums would drift from the totals.
	c.server.cohorts.quiescePrefetch()
	st := c.server.ReplicaStoreStats()
	d := st.Sub(c.prevStore)
	c.prevStore = st
	m.StoreHits = d.Hits
	m.StoreMisses = d.Misses
	m.StorePrefetched = d.PrefetchHits
	m.SpillReadBytes = d.SpillReadBytes
	m.SpillWriteBytes = d.SpillWriteBytes
	m.ReplicaFaults = c.server.TakeReplicaFaults()
}

// evalIDs returns the device ids per-device evaluation covers: every
// device, or the deterministic EvalDevices-long prefix in the scale
// regime.
func (c *Coordinator) evalIDs() []int {
	n := len(c.devices)
	if c.cfg.EvalDevices > 0 && c.cfg.EvalDevices < n {
		n = c.cfg.EvalDevices
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// deviceAccs evaluates per-device test accuracy for the synchronous
// engine: live device models directly, or — in virtual mode — each
// evaluated device's stored state (its last download, or the seeded
// initial state when it never downloaded) installed in a worker rig's
// module, which is exactly what the live model would hold at this round
// boundary. The pool is idle between rounds, so the fan-out borrows its
// rigs' warmed-up arenas (and modules): ForEachWorker's worker indices are
// the pool's slot indices.
func (c *Coordinator) deviceAccs() ([]float64, error) {
	ids := c.evalIDs()
	accs := make([]float64, len(ids))
	var mu sync.Mutex
	var firstErr error
	sched.ForEachWorker(len(ids), c.cfg.poolWorkers(), func(i, w int) {
		id := ids[i]
		rig := c.pool.WorkerScratch(w).(*deviceRig)
		m := c.devices[id].Model
		if c.virtual {
			var enc []byte
			var err error
			if m, enc, err = c.deviceModule(rig, id); err == nil && enc != nil {
				err = codec.DecodeInto(enc, nn.CaptureState(m))
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("fedzkt: evaluating device %d: %w", id, err)
				}
				mu.Unlock()
				return
			}
		}
		accs[i] = fed.EvaluateArena(m, c.ds, 64, rig.step)
	})
	return accs, firstErr
}

// statePayload carries one model state across the simulated wire: the
// codec container under a quantised codec, or a dense deep copy on the
// identity fast path (the float64 container round trip is bit-identical
// — pinned by TestFloat64CodecMatchesDefault — so in-process it would
// only add an encode/decode pass per device on the default
// configuration). Exactly one field is set; either form is an
// independent copy, safe to hand across engine stages. A dense copy is a
// buffer of c.payloads: whoever consumes the payload (absorbUploads,
// applyDownload, localPhase for a discarded task) gives it back.
type statePayload struct {
	enc []byte
	sd  nn.StateDict
}

// publishDownload returns device id's post-round replica in wire form
// plus its element count for traffic accounting. Shared by the
// synchronous and pipelined engines so the identity-fast-path condition
// and the accounting can never drift between them.
func (c *Coordinator) publishDownload(id int) (statePayload, int, error) {
	if codec.Identity(c.codec) {
		sd, err := c.server.ReplicaStateInto(id, c.payloads.take(c.devices[id].Arch))
		if err != nil {
			return statePayload{}, 0, err
		}
		return statePayload{sd: sd}, sd.Numel(), nil
	}
	b, numel, err := c.server.ReplicaPayload(id)
	if err != nil {
		return statePayload{}, 0, err
	}
	return statePayload{enc: b}, numel, nil
}

// applyDownload installs one published state into its device: the live
// model, or — in virtual mode — the device's store slot, which keeps the
// wire payload as it arrived (after a header-only layout check; elements
// are decoded once, into the rig's module, on the device's next
// materialisation) or, on the identity path, the dense state's float64
// container. A live device's model would hold exactly these values after
// the download, which is what the next materialisation reproduces.
func (c *Coordinator) applyDownload(id int, p statePayload) error {
	d := c.devices[id]
	defer c.payloads.give(d.Arch, p.sd)
	if !c.virtual {
		if p.sd != nil {
			return d.Download(p.sd)
		}
		return d.DownloadPayload(p.enc)
	}
	ts := c.devStore[d.Arch]
	var err error
	if p.sd != nil {
		err = ts.put(id, c.codec, p.sd)
	} else if err = c.checkDeviceLayout(id, p.enc); err == nil {
		err = ts.putBytes(id, p.enc)
	}
	if err != nil {
		return fmt.Errorf("fedzkt: device %d download: %w", id, err)
	}
	return nil
}

// checkDeviceLayout validates a container's headers — names and element
// counts, no element work — against device id's registered architecture.
func (c *Coordinator) checkDeviceLayout(id int, payload []byte) error {
	ref, err := c.server.cohorts.ref(id)
	if err != nil {
		return err
	}
	entries, err := codec.Layout(payload)
	if err != nil {
		return err
	}
	return ref.cohort.sig.checkLayout(ref.cohort.arch, entries)
}

// localPhase runs Algorithm 2 on every sampled device via the sharded
// scheduler and returns the device ids that completed within the round
// together with their uploaded states in wire form — encoded with the
// run's codec, exactly the bytes a real uplink would carry, or dense
// copies on the identity fast path — in ascending-id order. Each task
// stages its own upload on its worker right after the local update, which
// is what lets a virtual device hand the rig's module back when its task
// ends (and keeps the encode off the coordinator goroutine); uploads of
// tasks that did not complete are discarded. The uploads are staged for
// the server but not yet absorbed: the synchronous engine absorbs them
// immediately, the pipelined engine hands them to the server stage so
// they cannot race an in-flight distillation. Each task touches only its
// own device and its worker's rig, so the round's outcome is identical
// for any worker count.
func (c *Coordinator) localPhase(ctx context.Context, round int, active []int, m *fed.RoundMetrics) ([]int, []statePayload, error) {
	cfg := c.cfg
	local := fed.LocalConfig{
		Epochs:      cfg.LocalEpochs,
		BatchSize:   cfg.BatchSize,
		LR:          cfg.DeviceLR,
		Momentum:    cfg.Momentum,
		WeightDecay: cfg.WeightDecay,
		ProxMu:      cfg.ProxMu,
	}
	// staged[pos] and numels[pos] are written by task pos alone; RunRound
	// returning publishes them.
	staged := make([]statePayload, len(active))
	numels := make([]int, len(active))
	tasks := make([]sched.Task, len(active))
	for pos, id := range active {
		pos, id := pos, id
		tasks[pos] = sched.Task{Device: id, Run: func(ctx context.Context) (err error) {
			rng := tensor.NewRand(cfg.Seed ^ (uint64(round)<<20 + uint64(id)<<4 + 0x5EED))
			// The task owns its device and its worker's rig for the
			// duration of the run, so lending the rig's arenas (and, to a
			// virtual device, its module) through the device is race-free.
			rig := sched.Scratch(ctx).(*deviceRig)
			d := c.devices[id]
			d.Scratch, d.TaskScratch = rig.step, rig.task
			defer func() {
				d.Scratch, d.TaskScratch = nil, nil
				if c.virtual {
					// The upload is staged (an independent copy); hand the
					// module back. The trained state is deliberately not
					// written to the store: the device's next state is its
					// download after this round's transfer-back, which
					// applyDownload stores — exactly the state a live model
					// would hold at the next round boundary.
					d.Evict()
				}
				rig.task.Reset()
			}()
			if c.virtual {
				if err := c.materialiseDevice(rig, id); err != nil {
					return err
				}
			}
			if _, err := d.LocalUpdate(local, rng); err != nil {
				return err
			}
			staged[pos], numels[pos], err = c.stageUpload(d)
			return err
		}}
	}
	completed := make([]int, 0, len(active))
	uploads := make([]statePayload, 0, len(active))
	for pos, r := range c.pool.RunRound(ctx, round, tasks) {
		if r.Status != sched.StatusCompleted {
			// A late or failed task's staged upload goes nowhere.
			c.payloads.give(c.devices[r.Device].Arch, staged[pos].sd)
		}
		switch r.Status {
		case sched.StatusCompleted:
			completed = append(completed, r.Device)
			uploads = append(uploads, staged[pos])
			m.BytesUp += fed.WireBytes(numels[pos], c.codec.Width())
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
				c.server.cohorts.noteFault(r.Device, r.Err)
				continue
			}
			return nil, nil, fmt.Errorf("fedzkt: local phase device %d: %w", r.Device, r.Err)
		}
	}
	return completed, uploads, nil
}

// stageUpload captures d's trained state in wire form plus its element
// count for traffic accounting: the codec container, or a dense deep copy
// on the identity fast path.
func (c *Coordinator) stageUpload(d *fed.Device) (statePayload, int, error) {
	if codec.Identity(c.codec) {
		sd := c.payloads.take(d.Arch)
		if sd == nil {
			sd = d.Upload()
		} else if err := sd.LoadFrom(nn.CaptureState(d.Model)); err != nil {
			return statePayload{}, 0, fmt.Errorf("fedzkt: device %d upload: %w", d.ID, err)
		}
		return statePayload{sd: sd}, sd.Numel(), nil
	}
	payload, numel, err := d.UploadPayload(c.codec)
	return statePayload{enc: payload}, numel, err
}

// absorbUploads installs a round's staged uploads into the server
// replicas, in the staged (ascending-id) order.
func (c *Coordinator) absorbUploads(completed []int, uploads []statePayload) error {
	for i, id := range completed {
		var err error
		if uploads[i].sd != nil {
			err = c.server.Absorb(id, uploads[i].sd)
			c.payloads.give(c.devices[id].Arch, uploads[i].sd)
		} else {
			err = c.server.AbsorbPayload(id, uploads[i].enc)
		}
		if err != nil {
			return fmt.Errorf("fedzkt: upload device %d: %w", id, err)
		}
	}
	return nil
}

// applyDownloads installs a published download batch into its devices.
func (c *Coordinator) applyDownloads(db downloadBatch) error {
	for i, id := range db.ids {
		if err := c.applyDownload(id, db.states[i]); err != nil {
			return err
		}
	}
	return nil
}
