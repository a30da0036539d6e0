// Scale: FedZKT at device scale. The paper evaluates with 10 devices;
// real cross-device federations sample a few dozen clients per round out
// of millions of enrolled devices. This example simulates such a
// federation in one process on the sharded round scheduler: uniform-K
// client sampling, bounded workers, deterministic failure injection, and
// an optional per-round deadline that drops stragglers from aggregation.
// The server phase runs on the architecture-cohort replica store,
// sampling a teacher subset per distillation iteration
// (-teachers-per-iter 0 restores the paper-exact full ensemble).
//
// With -replica-store spill the server keeps only an LRU hot set of
// replica slots resident and spills cold devices to fixed-stride disk
// files, with a prefetcher loading the next iterations' teacher draws
// while distillation computes — memory bounded by the hot-set size, not
// the device count. -shards N splits the store into independently locked
// shards fanned out on the worker pool. -virtual-devices applies the same
// treatment to the device side: models are materialised from a tiered
// store only while a device participates. At ≥ 10,000 devices all three
// are enabled automatically (and evaluation capped to -eval-devices), so
// a million-device federation runs in one bounded-RSS process:
//
//	go run ./examples/scale -devices 1000000
//
// With -pipeline-depth ≥ 1 rounds run on the staged pipelined engine:
// the server distills round r while round r+1 trains on-device, with
// devices on bounded-stale parameters (see README "Pipelined rounds").
//
// With -state-codec float16 or int8 the server keeps every replica slot
// as a quantised buffer (2 or 1 bytes per element instead of 8) and the
// simulated wire carries the same compact payloads — the memory/traffic
// lever compounds with the spill tier (see README "Compressed state").
//
//	go run ./examples/scale
//	go run ./examples/scale -devices 1000 -sample-k 32 -workers 8 -rounds 2
//	go run ./examples/scale -devices 1000 -teachers-per-iter 16 -teacher-sampling weighted
//	go run ./examples/scale -devices 1000 -sample-k 32 -pipeline-depth 2
//	go run ./examples/scale -devices 1000 -replica-store spill -shards 4 -hot-set 64
//	go run ./examples/scale -devices 1000000 -rounds 2
//
// With -checkpoint-dir the coordinator writes an atomic, CRC-trailed
// checkpoint file after each round, and -resume restarts from the latest
// intact one; -chaos arms seeded failpoints (I/O faults, torn checkpoint
// writes, crash points that exit with code 7) for crash-recovery drills:
//
//	go run ./examples/scale -checkpoint-dir /tmp/ckpt -chaos "seed=7;crash.round.end=on:2"
//	go run ./examples/scale -checkpoint-dir /tmp/ckpt -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// autoScaleDevices is the device count at which the example switches on
// the bounded-memory machinery by default: spill-tier replica store,
// sharded cohorts, virtual devices, capped evaluation.
const autoScaleDevices = 10000

func main() {
	var (
		devices  = flag.Int("devices", 1000, "number of simulated devices")
		sampleK  = flag.Int("sample-k", 32, "clients sampled per round (uniform-K)")
		workers  = flag.Int("workers", 0, "scheduler worker-pool size (0 = GOMAXPROCS)")
		rounds   = flag.Int("rounds", 2, "communication rounds")
		deadline = flag.Duration("round-deadline", 0, "per-round wall-clock budget (0 = none; incompatible with virtual devices)")
		failRate = flag.Float64("fail-rate", 0.05, "injected per-device-round failure probability")
		weighted = flag.Bool("weighted", false, "weight client sampling by shard size")
		seed     = flag.Uint64("seed", 42, "random seed")
		fastMath = flag.Bool("fast-math", false, "relaxed-numerics kernels (FMA, relaxed accumulation order); faster, not byte-reproducible against exact-mode runs")

		teachersPerIter = flag.Int("teachers-per-iter", 8, "replica teachers sampled per server distillation iteration (0 = paper-exact full ensemble)")
		teacherSampling = flag.String("teacher-sampling", "uniform", "teacher-subset policy: uniform or weighted (by device data size)")
		cohortReplicas  = flag.Int("cohort-replicas", 0, "live replica modules retained per architecture cohort (0 = automatic)")
		pipelineDepth   = flag.Int("pipeline-depth", 0, "rounds in flight on the pipelined engine: the server distills round r while round r+1 trains on-device (0 = synchronous barrier)")
		stateCodec      = flag.String("state-codec", "", "state codec for replica slots and wire payloads: float64 (dense, default), float16 (2 B/elem), int8 (1 B/elem, per-tensor affine)")

		replicaStore = flag.String("replica-store", "auto", "server replica store: memory, spill (LRU hot set + disk tier), or auto (spill at ≥ 10,000 devices)")
		shardCount   = flag.Int("shards", 0, "cohort store shards, registration/checkout fanned out per shard (0 = auto: 4 at ≥ 10,000 devices)")
		hotSet       = flag.Int("hot-set", 0, "resident replica slots per cohort shard under the spill store (0 = sized to the teacher window)")
		spillDir     = flag.String("spill-dir", "", "directory for spill files (default: a private temp dir, removed on exit)")
		virtual      = flag.Bool("virtual-devices", false, "keep device models in a tiered store, materialised only while participating (auto-enabled at ≥ 10,000 devices)")
		evalDevices  = flag.Int("eval-devices", -1, "devices in the per-round replica evaluation, 0 = all (-1 = auto: all below 10,000 devices, 256 beyond)")

		checkpointDir   = flag.String("checkpoint-dir", "", "write an atomic, CRC-trailed checkpoint file here after every -checkpoint-every rounds (enables crash recovery)")
		checkpointEvery = flag.Int("checkpoint-every", 0, "round cadence of durable checkpoints (0 = every round when -checkpoint-dir is set)")
		keepCheckpoints = flag.Int("keep-checkpoints", 0, "checkpoint files retained in -checkpoint-dir (0 = 3); older files are the rollback targets")
		resume          = flag.Bool("resume", false, "resume from the latest intact checkpoint in -checkpoint-dir (fresh start when none loads)")
		chaosSpec       = flag.String("chaos", "", "arm seeded failpoints, e.g. \"seed=7;spill.read.err=0.01;crash.round.end=on:2\" (see internal/chaos; crash points exit with code 7)")

		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
		memProfile    = flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
		listenMetrics = flag.String("listen-metrics", "", "serve the live introspection endpoint on this address (/metrics, /debug/vars, /debug/trace, /debug/pprof; \":0\" picks a port)")
	)
	flag.Parse()

	var plan *chaos.Plan
	if *chaosSpec != "" {
		p, err := chaos.Parse(*chaosSpec)
		if err != nil {
			log.Fatal(err)
		}
		plan = p
		chaos.Activate(plan)
		defer chaos.Deactivate()
		fmt.Printf("chaos armed: %s\n", *chaosSpec)
	}

	if *listenMetrics != "" {
		addr, err := obs.ListenAndServe(*listenMetrics)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics listening on http://%s/metrics\n", addr)
	}

	// Registered first so it unwinds last: the CPU profile stops before
	// the exit GC and allocation snapshot.
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Print(err)
			}
			f.Close()
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *fastMath {
		fedzkt.SetFastMath(true)
		fmt.Printf("fast-math kernels on (hardware FMA: %v) — results are not byte-reproducible against exact mode\n", fedzkt.FastMathFMA())
	}

	// Beyond the auto-scale threshold, default to the bounded-memory
	// configuration: every per-device cost (replica slots, device models,
	// evaluation) must be O(hot set), not O(devices).
	atScale := *devices >= autoScaleDevices
	store := *replicaStore
	if store == "auto" {
		store = fedzkt.ReplicaStoreMemory
		if atScale {
			store = fedzkt.ReplicaStoreSpill
		}
	}
	shards := *shardCount
	if shards == 0 {
		shards = 1
		if atScale {
			shards = 4
		}
	}
	useVirtual := *virtual || (atScale && *deadline == 0)
	evalN := *evalDevices
	if evalN < 0 {
		evalN = 0
		if atScale {
			evalN = 256
		}
	}

	fmt.Printf("simulating %d devices on %d CPU(s), sampling %d clients/round (store=%s shards=%d virtual=%v)\n",
		*devices, runtime.GOMAXPROCS(0), *sampleK, store, shards, useVirtual)

	// Enough data for every device to hold a couple of samples — but the
	// dataset must not itself grow O(devices) forever, so cap it and give
	// huge federations small overlapping strided shards instead.
	perClass := (2*(*devices))/10 + 1
	if perClass > 20000 {
		perClass = 20000
	}
	ds := data.SynthMNIST(fedzkt.Sizes{TrainPerClass: perClass, TestPerClass: 10}, *seed)
	var dataShards [][]int
	if n := ds.NumTrain(); 2*(*devices) > n {
		dataShards = make([][]int, *devices)
		for i := range dataShards {
			dataShards[i] = []int{i % n, (i + 1) % n}
		}
	} else {
		dataShards = fedzkt.PartitionIID(ds.NumTrain(), *devices, *seed+1)
	}

	build := time.Now()
	co, err := fedzkt.New(fedzkt.Config{
		// A deliberately small distillation budget: this demo is about
		// scheduling and server scaling, not accuracy. With the default
		// -teachers-per-iter the server samples a teacher subset per
		// distillation iteration instead of forwarding every replica
		// (set -teachers-per-iter 0 for the paper-exact full ensemble).
		Rounds: *rounds, LocalEpochs: 1, DistillIters: 3, StudentSteps: 1,
		DistillBatch: 8, BatchSize: 8, ZDim: 16,
		DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9,
		Seed:    *seed,
		SampleK: *sampleK, SampleWeighted: *weighted,
		Workers: *workers, RoundDeadline: *deadline, FailureRate: *failRate,
		TeachersPerIter: *teachersPerIter, TeacherSampling: *teacherSampling,
		CohortReplicas: *cohortReplicas,
		PipelineDepth:  *pipelineDepth,
		StateCodec:     *stateCodec,
		ReplicaStore:   store, ReplicaShards: shards, HotSet: *hotSet,
		SpillDir:       *spillDir,
		VirtualDevices: useVirtual,
		EvalDevices:    evalN,
		EvalEvery:      *rounds, // evaluating every device model is the slow part

		CheckpointDir:   *checkpointDir,
		CheckpointEvery: *checkpointEvery,
		KeepCheckpoints: *keepCheckpoints,
		Resume:          *resume,
	}, ds, []string{"mlp", "lenet-s"}, dataShards)
	if err != nil {
		log.Fatal(err)
	}
	defer co.Close()
	srv := co.Server()
	fmt.Printf("federation built (%d devices in %d architecture cohorts × %d shards) in %s\n",
		*devices, srv.NumCohorts(), srv.ReplicaShards(), time.Since(build).Round(time.Millisecond))

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	hist, err := co.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	fmt.Println()
	report := obs.RoundReport{Columns: obs.ScaleColumns(), Note: obs.FaultNote}
	report.Render(os.Stdout, hist.Rows())
	stats := co.Pool().Stats()
	fmt.Printf("\npolicy=%s  totals: completed=%d dropped=%d injected=%d\n",
		co.Sampler().Name(), stats.Completed.Load(), stats.Dropped.Load(), stats.Injected.Load())
	if *pipelineDepth > 0 {
		down, up := hist.TotalStalls()
		fmt.Printf("pipeline: depth=%d, local stage stalled on downloads %s, server stage stalled on uploads %s, pool busy %s of %s wall\n",
			*pipelineDepth, down.Round(time.Millisecond), up.Round(time.Millisecond),
			stats.BusyTime().Round(time.Millisecond), elapsed.Round(time.Millisecond))
	}
	fmt.Printf("server: teachers/iter=%d (0 = full ensemble), live replica modules retained=%d of %d devices\n",
		*teachersPerIter, srv.LiveReplicas(), *devices)
	fmt.Printf("state: codec=%s, resident replica slots %d B total (%d B/device)\n",
		srv.Codec().Name(), srv.ResidentStateBytes(), srv.ResidentStateBytes()/int64(*devices))
	printStoreStats("replica store", srv.ReplicaStoreStats())
	if useVirtual {
		printStoreStats("device store", co.DeviceStoreStats())
	}
	fmt.Printf("global model accuracy: %.4f | mean device accuracy: %.4f",
		hist.FinalGlobalAcc(), hist.FinalMeanDeviceAcc())
	if evalN > 0 && evalN < *devices {
		fmt.Printf(" (over %d evaluated devices)", evalN)
	}
	fmt.Println()
	allocMB := float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / (1 << 20)
	gcPause := time.Duration(msAfter.PauseTotalNs - msBefore.PauseTotalNs) //nolint:gosec // monotonic counters
	fmt.Printf("alloc: %.1f MB heap-allocated during the run, %d GCs, %s total GC pause (%.2f%% of wall)\n",
		allocMB, msAfter.NumGC-msBefore.NumGC, gcPause.Round(time.Microsecond),
		100*float64(gcPause)/float64(elapsed))
	if useVirtual {
		builds, reuses := co.DeviceRigStats()
		fmt.Printf("device rigs: %d modules built, %d materialisations served by reuse\n", builds, reuses)
	}
	if built, reused := co.PayloadBufferStats(); built+reused > 0 {
		fmt.Printf("payload buffers: %d built, %d uploads/downloads served by reuse\n", built, reused)
	}
	if rss, peak, ok := processRSS(); ok {
		fmt.Printf("rss: %.0f MB now, %.0f MB peak — bounded by the hot set, not the device count\n", rss, peak)
	}
	fmt.Printf("%d devices × %d rounds in %s — one process, bounded concurrency.\n",
		*devices, *rounds, elapsed.Round(time.Millisecond))

	// The fingerprint digest covers the coordinator's whole finalised
	// history — across a crash and resume, not just this Run — so a
	// crash-recovery soak can pin a resumed run against an uninterrupted
	// one from the digests alone (sync engine, full participation).
	full := co.History()
	h := fnv.New64a()
	_, _ = h.Write([]byte(full.Fingerprint()))
	fmt.Printf("history fingerprint: %016x over %d rounds\n", h.Sum64(), len(full))
	if plan != nil {
		for _, site := range chaos.Sites() {
			if plan.Armed(site) {
				fmt.Printf("chaos: %-20s hits=%d fired=%d\n", site, plan.Hits(site), plan.Fired(site))
			}
		}
	}
}

// printStoreStats prints one tiered store's cumulative counters.
func printStoreStats(name string, st fedzkt.ReplicaStoreStats) {
	if st.Mode != fedzkt.ReplicaStoreSpill {
		fmt.Printf("%s: mode=%s (fully resident)\n", name, st.Mode)
		return
	}
	fmt.Printf("%s: mode=%s shards=%d, hot %d slots / %.1f MB, hit rate %.1f%%, prefetch overlap %.1f%% (%d issued, %d loaded)\n",
		name, st.Mode, st.Shards, st.HotEntries, float64(st.HotBytes)/1e6,
		100*st.HitRate(), 100*st.PrefetchOverlap(), st.PrefetchIssued, st.PrefetchLoaded)
	fmt.Printf("%s: spill %d records, read %.1f MB / wrote %.1f MB, %d evictions, %d lazy init builds, %d faults\n",
		name, st.SpillRecords, float64(st.SpillReadBytes)/1e6, float64(st.SpillWriteBytes)/1e6,
		st.Evictions, st.InitBuilds, st.ReplicaFaults)
}

// processRSS reads current and peak resident-set size in MB from
// /proc/self/status (Linux; ok=false elsewhere).
func processRSS() (rss, peak float64, ok bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmRSS: %f kB", &kb); err == nil {
			rss, ok = kb/1024, true
		}
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			peak, ok = kb/1024, true
		}
	}
	return rss, peak, ok
}
