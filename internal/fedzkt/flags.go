package fedzkt

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// This file is the one place a command-line flag is tied to a Config
// field. Every flag is bound straight to its field, and the field's value
// when the flag is bound is the flag's default — a main states its own
// defaults by filling a Config before binding it. A flag left unset (see
// flag.FlagSet.Visit) therefore leaves the main's default in place.
// TestFlagsCoverConfig fails when a Config field has neither a flag here
// nor an entry, with a reason, in its not-a-flag list.

// BindFlags declares the engine, scheduler, server, store, codec and
// checkpoint flags every main shares, in Config field order.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.SampleK, "sample-k", c.SampleK, "sample exactly K clients per round (uniform-K; 0 = every device, thinned by -active-fraction where that is a flag)")
	fs.IntVar(&c.Workers, "workers", c.Workers, "scheduler worker-pool size (0 = GOMAXPROCS)")
	fs.Float64Var(&c.FailureRate, "fail-rate", c.FailureRate, "injected per-device-round failure probability in [0,1), deterministic in (seed, round, device)")
	fs.IntVar(&c.TeachersPerIter, "teachers-per-iter", c.TeachersPerIter, "replica teachers sampled per server distillation iteration (0 = paper-exact full ensemble)")
	fs.IntVar(&c.PipelineDepth, "pipeline-depth", c.PipelineDepth, "rounds in flight on the round engine: the server distills round r while round r+1 trains on-device (0 = paper-exact synchronous barrier)")
	fs.StringVar(&c.ReplicaStore, "replica-store", c.ReplicaStore, "server replica store: memory (fully resident, the \"\" default) or spill (LRU hot set + disk tier)")
	fs.IntVar(&c.HotSet, "hot-set", c.HotSet, "hot-set bound per architecture cohort and per device architecture under the spill store (0 = auto: the whole cohort in exact mode, 2×teachers (min 32) per cohort in sampled mode; max(256, 2×sample-k) per device architecture)")
	fs.StringVar(&c.SpillDir, "spill-dir", c.SpillDir, "directory for spill files (default: a private temp dir, removed on exit)")
	fs.IntVar(&c.EvalDevices, "eval-devices", c.EvalDevices, "devices in the per-round replica evaluation (0 = all)")
	fs.StringVar(&c.StateCodec, "state-codec", c.StateCodec, "state codec for replica slots, wire payloads and checkpoints: float64 (exact, the \"\" default), float16 (2 B/elem) or int8 (1 B/elem, per-tensor affine)")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "random seed")
	fs.StringVar(&c.CheckpointDir, "checkpoint-dir", c.CheckpointDir, "write an atomic, CRC-trailed checkpoint file here after every -checkpoint-every rounds (enables crash recovery)")
	fs.IntVar(&c.CheckpointEvery, "checkpoint-every", c.CheckpointEvery, "round cadence of durable checkpoints (0 = every round when -checkpoint-dir is set)")
	fs.IntVar(&c.KeepCheckpoints, "keep-checkpoints", c.KeepCheckpoints, "checkpoint files retained in -checkpoint-dir (0 = 3); older files are the rollback targets")
	fs.BoolVar(&c.Resume, "resume", c.Resume, "resume from the latest intact checkpoint in -checkpoint-dir (fresh start when none loads)")
}

// BindSizingFlags declares the flags that size a single federation. A main
// that runs one federation binds them beside BindFlags; cmd/fedzkt does
// not, because each experiment sizes its own federations from -scale.
func (c *Config) BindSizingFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Rounds, "rounds", c.Rounds, "communication rounds")
	fs.IntVar(&c.LocalEpochs, "local-epochs", c.LocalEpochs, "local training epochs per round")
	fs.IntVar(&c.DistillIters, "distill-iters", c.DistillIters, "server distillation iterations per phase per round")
	fs.IntVar(&c.StudentSteps, "student-steps", c.StudentSteps, "global-model steps per generator step in the adversarial phase")
	fs.IntVar(&c.DistillBatch, "distill-batch", c.DistillBatch, "generator/distillation batch size")
	fs.IntVar(&c.BatchSize, "batch-size", c.BatchSize, "device-side training batch size")
	fs.Float64Var(&c.ActiveFraction, "active-fraction", c.ActiveFraction, "fraction of devices participating each round (the straggler parameter p; ignored with -sample-k)")
}

// ProcessFlags are the per-process diagnostics every main offers: seeded
// failpoints, CPU and allocation profiles, and the live introspection
// endpoint.
type ProcessFlags struct {
	Chaos         string
	CPUProfile    string
	MemProfile    string
	ListenMetrics string
}

// Bind declares the process flags on fs.
func (p *ProcessFlags) Bind(fs *flag.FlagSet) {
	fs.StringVar(&p.Chaos, "chaos", p.Chaos, "arm seeded failpoints, e.g. \"seed=7;spill.read.err=0.01;crash.round.end=on:2\" (see internal/chaos; crash points exit with code 7)")
	fs.StringVar(&p.CPUProfile, "cpuprofile", p.CPUProfile, "write a CPU profile of the run to this file (inspect with go tool pprof)")
	fs.StringVar(&p.MemProfile, "memprofile", p.MemProfile, "write an allocation profile taken at exit to this file (inspect with go tool pprof -sample_index=alloc_objects)")
	fs.StringVar(&p.ListenMetrics, "listen-metrics", p.ListenMetrics, "serve the live introspection endpoint on this address (/metrics, /debug/vars, /debug/trace, /debug/pprof; \":0\" picks a port)")
}

// Start arms what the flags asked for, announcing the chaos plan and the
// bound metrics address on standard error. The returned stop undoes it in
// reverse order and must run before the process exits: the CPU profile
// stops before the exit GC and allocation snapshot, keeping that
// bookkeeping out of the CPU profile's tail, and the chaos plan (readable
// through chaos.Active until then) is disarmed last. On error nothing is
// left armed.
func (p *ProcessFlags) Start() (stop func(), err error) {
	var undo []func()
	stop = func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	defer func() {
		if err != nil {
			stop()
			stop = nil
		}
	}()
	if p.Chaos != "" {
		plan, err := chaos.Parse(p.Chaos)
		if err != nil {
			return stop, err
		}
		chaos.Activate(plan)
		undo = append(undo, chaos.Deactivate)
		fmt.Fprintf(os.Stderr, "chaos armed: %s\n", p.Chaos)
	}
	if p.ListenMetrics != "" {
		addr, err := obs.ListenAndServe(p.ListenMetrics)
		if err != nil {
			return stop, fmt.Errorf("listen-metrics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "metrics listening on http://%s/metrics\n", addr)
	}
	if p.MemProfile != "" {
		f, err := os.Create(p.MemProfile)
		if err != nil {
			return stop, fmt.Errorf("memprofile: %w", err)
		}
		undo = append(undo, func() {
			runtime.GC() // flush up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		})
	}
	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // nothing was written
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		undo = append(undo, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		})
	}
	return stop, nil
}
