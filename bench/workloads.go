package main

import (
	"fmt"
	"math"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/data"
)

// refSeconds is the run length the workloads' round counts were sized
// for: two passes of six to eight seconds of Run each on the sizing host.
const refSeconds = 12

// workload is one named federation the benchmark runs. The zero-valued
// Config fields (Rounds, Seed, EvalEvery, SpillDir) are filled per run by
// inputs; everything else is the workload's definition.
type workload struct {
	name string
	// why is the one-line reason the workload exists, copied into
	// BENCHMARK.json.
	why string
	// rounds is the rounds per pass at refSeconds, and the floor for
	// shorter runs: fewer leave too few samples after the warm-up and
	// evaluation rounds are excluded.
	rounds  int
	devices int
	archs   []string
	sizes   data.Sizes
	// tcp runs the federation over transport sessions on loopback
	// instead of the in-process coordinator.
	tcp bool
	// minDeviceAcc is the mean device accuracy a full-length run must end
	// above (0 = the workload does not learn: fleets sit at chance by
	// construction). The global model carries no floor: after eight
	// rounds it ranges from chance to 0.5 across seeds.
	minDeviceAcc float64
	// quick runs every probe for one batch instead of probeReps and every
	// set-up child for one set-up (toy workloads: the smoke test checks
	// that they run, not what they read).
	quick bool
	cfg   fedzkt.Config
}

// base holds the hyper-parameters every workload shares.
func base(c fedzkt.Config) fedzkt.Config {
	c.DeviceLR, c.ServerLR, c.GenLR, c.Momentum = 0.05, 0.05, 3e-4, 0.9
	c.LocalEpochs = 1
	return c
}

// fleet is examples/scale's default federation: 1,000-device-style
// sampled rounds with a sampled teacher ensemble.
func fleet(c fedzkt.Config) fedzkt.Config {
	c.SampleK, c.FailureRate = 32, 0.05
	c.TeachersPerIter, c.DistillIters, c.StudentSteps = 8, 3, 1
	c.DistillBatch, c.BatchSize, c.ZDim = 8, 8, 16
	c.EvalDevices = 32
	return base(c)
}

var workloads = []workload{
	{
		name:    "paper10_full",
		why:     "the paper's regime: 10 heterogeneous devices, full participation, full teacher ensemble; server distillation and the tensor/ag kernels are ~90% of a round, store, codec and scheduler are bypassed",
		rounds:  8,
		devices: 10, archs: fedzkt.SmallZoo(), sizes: data.Sizes{TrainPerClass: 60, TestPerClass: 10},
		minDeviceAcc: 0.30, // chance is 0.10; 30 seeds ended at 0.43–0.69
		cfg:          base(fedzkt.Config{BatchSize: 16, DistillIters: 4, StudentSteps: 2, DistillBatch: 16}),
	},
	{
		name:    "fleet1k_sync",
		why:     "cross-device regime: 1,000 resident devices, 32 sampled per round, 8 sampled teachers, sync barrier; pool, absorb/publish of 32 states and resident-state memory/GC are the visible costs",
		rounds:  24,
		devices: 1000, archs: []string{"mlp", "lenet-s"}, sizes: data.Sizes{TrainPerClass: 201, TestPerClass: 10},
		cfg: fleet(fedzkt.Config{}),
	},
	{
		name:    "fleet1k_pipe2",
		why:     "fleet1k_sync on the staged engine (PipelineDepth 2): local and server phases overlap, so a local-side gain moves rounds_per_s on fleet1k_sync but must not move it here",
		rounds:  24,
		devices: 1000, archs: []string{"mlp", "lenet-s"}, sizes: data.Sizes{TrainPerClass: 201, TestPerClass: 10},
		cfg: fleet(fedzkt.Config{PipelineDepth: 2}),
	},
	{
		name:    "fleet1k_spill",
		why:     "fleet1k_sync in bounded memory: virtual devices, spill store with hot set 16, int8 codec; cold spill reads, dirty-eviction writes, seed-rebuilt slots and int8 encode/decode run only here",
		rounds:  20,
		devices: 1000, archs: []string{"mlp", "lenet-s"}, sizes: data.Sizes{TrainPerClass: 201, TestPerClass: 10},
		// A spill file is addressed by device index × record size and never
		// compacted, so its apparent size grows with the fleet: 1,000,000
		// devices make sparse files of 785 GB, which a file-size limit or a
		// file system without holes turns into a failed run. 1,000 keep the
		// largest (500 float64 mlp records) under 1 GB.
		cfg: fleet(fedzkt.Config{
			ReplicaStore: fedzkt.ReplicaStoreSpill, ReplicaShards: 4, HotSet: 16,
			VirtualDevices: true, StateCodec: "int8",
		}),
	},
	{
		name:   "tcp8_loopback",
		why:    "the only path through transport (frames, sessions, acks, metered conns) and its private round loop: 8 loopback sessions, 2 active per round, tiny compute and the heaviest state so framing weighs most",
		rounds: 48,
		// One architecture, and the one with the largest state for its
		// compute: which two of the eight devices a round samples then
		// changes neither its bytes nor its work, so wire and time repeat
		// across seeds, and the frames are as heavy as the zoo allows.
		devices: 8, archs: []string{"mlp"}, sizes: data.Sizes{TrainPerClass: 26, TestPerClass: 8},
		tcp: true,
		cfg: base(fedzkt.Config{
			ActiveFraction: 0.25, TeachersPerIter: 4, DistillIters: 1, StudentSteps: 1,
			DistillBatch: 8, BatchSize: 16,
		}),
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// roundsFor scales the round count to a run of the given length (two
// passes share it), never below the workload's floor.
func (w workload) roundsFor(seconds int) int {
	return max(w.rounds, int(math.Round(float64(w.rounds)*float64(seconds)/refSeconds)))
}

// arch returns device id's architecture (cycled, as fedzkt.New assigns).
func (w workload) arch(id int) string { return w.archs[id%len(w.archs)] }

// config returns the workload's federation config for one run. The seed
// reaches the program only here and through the dataset/partition seeds.
func (w workload) config(seed uint64, rounds int, spillDir string) fedzkt.Config {
	cfg := w.cfg
	cfg.Seed = seed
	cfg.Rounds = rounds
	cfg.EvalEvery = rounds // evaluate once, at the end
	if cfg.ReplicaStore == fedzkt.ReplicaStoreSpill {
		cfg.SpillDir = spillDir
	}
	return cfg
}

// inputs synthesises the workload's dataset and device shards from the
// seed (in-process workloads; the transport server derives its own from
// Config.Seed).
func (w workload) inputs(seed uint64) (*data.Dataset, [][]int) {
	ds := data.SynthMNIST(w.sizes, seed)
	return ds, fedzkt.PartitionIID(ds.NumTrain(), w.devices, seed+1)
}
