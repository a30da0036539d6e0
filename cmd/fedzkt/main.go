// Command fedzkt runs the paper-reproduction experiments and prints their
// tables and figures as Markdown (and optionally CSV files).
//
// Usage:
//
//	fedzkt -list
//	fedzkt -exp table1 -scale smoke
//	fedzkt -exp all -scale default -seed 3 -csv out/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	fedzkt "github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/experiments"
	"github.com/fedzkt/fedzkt/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedzkt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedzkt", flag.ContinueOnError)
	var (
		expID    = fs.String("exp", "", "experiment id (see -list) or \"all\"")
		scaleStr = fs.String("scale", "smoke", "experiment scale: smoke, default or full")
		seed     = fs.Uint64("seed", 1, "base random seed")
		csvDir   = fs.String("csv", "", "directory to also write per-artefact CSV files into")
		list     = fs.Bool("list", false, "list available experiments and exit")

		devices  = fs.String("devices", "", "federation size(s): one int for every experiment, or a comma-separated sweep for -exp scale (e.g. 100,1000)")
		sampleK  = fs.Int("sample-k", 0, "sample exactly K clients per round (uniform-K; 0 keeps each experiment's policy)")
		deadline = fs.Duration("round-deadline", 0, "per-round wall-clock budget; late devices are dropped from aggregation (0 = none)")
		workers  = fs.Int("workers", 0, "scheduler worker-pool size (0 = GOMAXPROCS)")
		fastMath = fs.Bool("fast-math", false, "relaxed-numerics kernels: FMA and parallel k-reductions with relaxed accumulation order; faster, but results stop being byte-reproducible against exact-mode runs")

		teachersPerIter = fs.Int("teachers-per-iter", 0, "server: replica teachers sampled per distillation iteration (0 = paper-exact full ensemble; -exp scale always compares full vs sampled and sizes the sampled arm with this, defaulting to 8)")
		teacherSampling = fs.String("teacher-sampling", "", "server: teacher-subset policy, uniform or weighted (by device data size)")
		cohortReplicas  = fs.Int("cohort-replicas", 0, "server: live replica modules retained per architecture cohort (0 = automatic)")
		pipelineDepth   = fs.Int("pipeline-depth", 0, "rounds in flight on the pipelined engine (0 = paper-exact synchronous barrier; -exp scale always compares sync vs pipelined and sizes the pipelined arm with this, defaulting to 1)")
		stateCodec      = fs.String("state-codec", "", "state codec for replica slots, wire payloads and checkpoints: float64 (dense, the default), float16, or int8 (per-tensor affine); -exp scale additionally sweeps all three in its codec table")
		replicaStore    = fs.String("replica-store", "", "server replica store: memory (fully resident, the default) or spill (LRU hot set + disk tier); -exp scale additionally runs a spill arm in its store table")
		shardCount      = fs.Int("shards", 0, "cohort store shards, registration/checkout fanned out per shard (0 = 1)")
		hotSet          = fs.Int("hot-set", 0, "resident replica slots per cohort shard under the spill store (0 = sized to the teacher window)")

		checkpointDir   = fs.String("checkpoint-dir", "", "durable crash-recovery checkpoints: every federation writes atomic, CRC-trailed checkpoint files into a per-cell subdirectory here")
		checkpointEvery = fs.Int("checkpoint-every", 0, "round cadence of durable checkpoints (0 = every round when -checkpoint-dir is set)")
		resume          = fs.Bool("resume", false, "resume every federation from the latest intact checkpoint in its -checkpoint-dir subdirectory (fresh start when none loads)")
		chaosSpec       = fs.String("chaos", "", "arm seeded failpoints, e.g. \"seed=7;spill.read.err=0.01;crash.round.end=on:2\" (see internal/chaos; crash points exit with code 7)")

		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
		memProfile    = fs.String("memprofile", "", "write an allocation profile taken at exit to this file (inspect with `go tool pprof -sample_index=alloc_objects`)")
		listenMetrics = fs.String("listen-metrics", "", "serve the live introspection endpoint on this address (/metrics, /debug/vars, /debug/trace, /debug/pprof; \":0\" picks a port)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaosSpec != "" {
		plan, err := chaos.Parse(*chaosSpec)
		if err != nil {
			return err
		}
		chaos.Activate(plan)
		defer chaos.Deactivate()
		fmt.Fprintf(os.Stderr, "fedzkt: chaos armed: %s\n", *chaosSpec)
	}
	if *checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0, got %d", *checkpointEvery)
	}
	if (*resume || *checkpointEvery > 0) && *checkpointDir == "" {
		return fmt.Errorf("-resume and -checkpoint-every require -checkpoint-dir")
	}
	if *listenMetrics != "" {
		addr, err := obs.ListenAndServe(*listenMetrics)
		if err != nil {
			return fmt.Errorf("listen-metrics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "fedzkt: metrics listening on http://%s/metrics\n", addr)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	// Flag values are checked by the one validation every federation runs
	// anyway, here before any experiment work. Only value domains can be
	// judged this early: -exp scale substitutes its own teacher count for 0,
	// so "weighted needs a count" is left to each federation.
	probe := fedzkt.Config{
		SampleK: *sampleK, RoundDeadline: *deadline, PipelineDepth: *pipelineDepth,
		TeachersPerIter: *teachersPerIter, TeacherSampling: *teacherSampling, CohortReplicas: *cohortReplicas,
		StateCodec: *stateCodec, ReplicaStore: *replicaStore, ReplicaShards: *shardCount, HotSet: *hotSet,
	}
	if probe.TeachersPerIter == 0 {
		probe.TeachersPerIter = 1
	}
	if err := probe.Validate(); err != nil {
		return err
	}
	if *fastMath {
		// Fast math trades byte-reproducibility for speed: warn loudly so a
		// run meant to reproduce a recorded golden fingerprint is not
		// silently invalidated.
		fmt.Fprintln(os.Stderr, "fedzkt: -fast-math enabled: FMA and relaxed accumulation order are in effect; run fingerprints will NOT match exact-mode (golden) recordings")
		fedzkt.SetFastMath(true)
		defer fedzkt.SetFastMath(false)
	}
	// The memprofile defer is registered first so it unwinds last —
	// the CPU profile stops before the exit GC and allocation snapshot,
	// keeping that bookkeeping out of the CPU profile's tail.
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // flush up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "fedzkt: memprofile:", err)
			}
			f.Close()
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *expID == "" {
		return fmt.Errorf("missing -exp (use -list to see choices)")
	}
	scale, err := experiments.ParseScale(*scaleStr)
	if err != nil {
		return err
	}
	params := experiments.ParamsFor(scale)
	params.Seed = *seed
	params.SampleK = *sampleK
	params.RoundDeadline = *deadline
	params.Workers = *workers
	params.TeachersPerIter = *teachersPerIter
	params.TeacherSampling = *teacherSampling
	params.CohortReplicas = *cohortReplicas
	params.PipelineDepth = *pipelineDepth
	params.StateCodec = *stateCodec
	params.ReplicaStore = *replicaStore
	params.ReplicaShards = *shardCount
	params.HotSet = *hotSet
	params.CheckpointDir = *checkpointDir
	params.CheckpointEvery = *checkpointEvery
	params.Resume = *resume
	if *devices != "" {
		counts, err := parseDevices(*devices)
		if err != nil {
			return err
		}
		if len(counts) > 1 && *expID != "scale" {
			return fmt.Errorf("-devices with multiple values (%s) is only meaningful for -exp scale; other experiments take a single federation size", *devices)
		}
		params.Devices = counts[0]
		params.ScaleDevices = counts
	}

	var selected []experiments.Experiment
	if *expID == "all" {
		selected = experiments.All()
	} else {
		e, ok := experiments.ByID(*expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *expID)
		}
		selected = []experiments.Experiment{e}
	}

	for _, e := range selected {
		start := time.Now()
		fmt.Printf("## %s — %s (scale=%s, seed=%d)\n\n", e.ID, e.Title, *scaleStr, *seed)
		res, err := e.Run(params)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Print(res.Markdown())
		fmt.Printf("_completed in %s_\n\n", time.Since(start).Round(time.Second))
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseDevices parses the -devices flag: one or more comma-separated
// positive device counts.
func parseDevices(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	counts := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -devices value %q (want positive ints, e.g. 100,1000)", s)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func writeCSVs(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	for _, t := range res.Tables {
		path := filepath.Join(dir, t.ID+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	for _, f := range res.Figures {
		path := filepath.Join(dir, f.ID+".csv")
		if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}
