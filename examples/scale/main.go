// Scale: FedZKT at device scale. The paper evaluates with 10 devices;
// real cross-device federations sample a few dozen clients per round out
// of millions of enrolled devices. This example simulates such a
// federation in one process on the sharded round scheduler: uniform-K
// client sampling, bounded workers and deterministic failure injection,
// each round a synchronous barrier.
// The server phase runs on the architecture-cohort replica store,
// sampling a teacher subset per distillation iteration
// (-teachers-per-iter 0 restores the paper-exact full ensemble).
//
// With -replica-store spill the server keeps only an LRU hot set of
// replica slots per architecture resident and spills cold devices to a
// fixed-stride disk file per architecture, a checkout loading a cold
// replica itself, and the devices' own states at rest get the same
// treatment; a worker's module holds a device's state only while it
// participates. At ≥ 10,000 devices the spill store is the default
// wherever -replica-store is not given, and evaluation is capped to 256
// devices, so a million-device federation runs in one process. The last
// lines report its peak RSS against the dataset and the stores' hot
// entries, and what remains per device:
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
//	go run ./examples/scale -devices 1000 -teachers-per-iter 16
//	go run ./examples/scale -devices 1000 -sample-k 32 -pipeline-depth 2
//	go run ./examples/scale -devices 1000 -replica-store spill -hot-set 64
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
	"strings"
	"time"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
)

// autoScaleDevices is the device count at which the example switches on
// the bounded-memory machinery by default: the spill store, capped
// evaluation.
const autoScaleDevices = 10000

func main() {
	devices := flag.Int("devices", 1000, "number of simulated devices")
	// A deliberately small distillation budget: this demo is about
	// scheduling and server scaling, not accuracy. By default the server
	// samples a teacher subset per distillation iteration instead of
	// forwarding every replica (-teachers-per-iter 0 is the paper-exact
	// full ensemble).
	cfg := fedzkt.Config{
		Rounds: 2, LocalEpochs: 1, DistillIters: 3, StudentSteps: 1,
		DistillBatch: 8, BatchSize: 8, ZDim: 16,
		DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9,
		Seed:    42,
		SampleK: 32, FailureRate: 0.05,
		TeachersPerIter: 8,
		ReplicaStore:    fedzkt.ReplicaStoreMemory,
	}
	cfg.BindFlags(flag.CommandLine)
	cfg.BindSizingFlags(flag.CommandLine)
	var proc fedzkt.ProcessFlags
	proc.Bind(flag.CommandLine)
	flag.Parse()

	// Beyond the auto-scale threshold, default to the bounded-memory
	// configuration: every per-device cost (replica slots, device models,
	// evaluation) must be O(hot set), not O(devices). A flag that was given
	// keeps its value.
	if *devices >= autoScaleDevices {
		given := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !given["replica-store"] {
			cfg.ReplicaStore = fedzkt.ReplicaStoreSpill
		}
		if !given["eval-devices"] {
			cfg.EvalDevices = 256
		}
	}
	cfg.EvalEvery = cfg.Rounds // evaluating every device model is the slow part
	stop, err := proc.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	fmt.Printf("simulating %d devices on %d CPU(s), sampling %d clients/round (store=%s)\n",
		*devices, runtime.GOMAXPROCS(0), cfg.SampleK, cfg.ReplicaStore)

	// Enough data for every device to hold a couple of samples — but the
	// dataset must not itself grow O(devices) forever, so cap it and give
	// huge federations small overlapping strided shards instead.
	perClass := (2*(*devices))/10 + 1
	if perClass > 20000 {
		perClass = 20000
	}
	ds := data.SynthMNIST(fedzkt.Sizes{TrainPerClass: perClass, TestPerClass: 10}, cfg.Seed)
	var dataShards [][]int
	if n := ds.NumTrain(); 2*(*devices) > n {
		dataShards = make([][]int, *devices)
		for i := range dataShards {
			dataShards[i] = []int{i % n, (i + 1) % n}
		}
	} else {
		dataShards = fedzkt.PartitionIID(ds.NumTrain(), *devices, cfg.Seed+1)
	}

	build := time.Now()
	co, err := fedzkt.New(cfg, ds, []string{"mlp", "lenet-s"}, dataShards)
	if err != nil {
		log.Fatal(err)
	}
	defer co.Close()
	srv := co.Server()
	fmt.Printf("federation built (%d devices in %d architecture cohorts) in %s\n",
		*devices, srv.NumCohorts(), time.Since(build).Round(time.Millisecond))

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
	report := fed.RoundReport{Columns: fed.ScaleColumns(), Note: fed.FaultNote}
	report.Render(os.Stdout, hist)
	stats := co.Pool().Stats()
	fmt.Printf("\npolicy=%s  totals: completed=%d dropped=%d injected=%d\n",
		co.Sampler().Name(), stats.Completed.Load(), stats.Dropped.Load(), stats.Injected.Load())
	if cfg.PipelineDepth > 0 {
		down, up := hist.TotalStalls()
		fmt.Printf("pipeline: depth=%d, local stage stalled on downloads %s, server stage stalled on uploads %s, pool busy %s of %s wall\n",
			cfg.PipelineDepth, down.Round(time.Millisecond), up.Round(time.Millisecond),
			stats.BusyTime().Round(time.Millisecond), elapsed.Round(time.Millisecond))
	}
	fmt.Printf("server: teachers/iter=%d (0 = full ensemble), live replica modules retained=%d of %d devices\n",
		cfg.TeachersPerIter, srv.LiveReplicas(), *devices)
	fmt.Printf("state: codec=%s, resident replica slots %d B total (%d B/device)\n",
		srv.Codec().Name(), srv.ResidentStateBytes(), srv.ResidentStateBytes()/int64(*devices))
	printStoreStats("replica store", srv.ReplicaStoreStats())
	printStoreStats("device store", co.DeviceStoreStats())
	fmt.Printf("global model accuracy: %.4f | mean device accuracy: %.4f",
		hist.FinalGlobalAcc(), hist.FinalMeanDeviceAcc())
	if cfg.EvalDevices > 0 && cfg.EvalDevices < *devices {
		fmt.Printf(" (over %d evaluated devices)", cfg.EvalDevices)
	}
	fmt.Println()
	allocMB := float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / (1 << 20)
	gcPause := time.Duration(msAfter.PauseTotalNs - msBefore.PauseTotalNs) //nolint:gosec // monotonic counters
	fmt.Printf("alloc: %.1f MB heap-allocated during the run, %d GCs, %s total GC pause (%.2f%% of wall)\n",
		allocMB, msAfter.NumGC-msBefore.NumGC, gcPause.Round(time.Microsecond),
		100*float64(gcPause)/float64(elapsed))
	builds, reuses := co.DeviceRigStats()
	fmt.Printf("device rigs: %d modules built, %d materialisations served by reuse\n", builds, reuses)
	if built, reused := co.PayloadBufferStats(); built+reused > 0 {
		fmt.Printf("payload buffers: %d built, %d uploads/downloads served by reuse\n", built, reused)
	}
	if rss, peak, ok := processRSS(); ok {
		// What the peak holds beyond the dataset and the states at rest in
		// the stores' hot entries is the cost of the rest of the process,
		// devices included, spread over the devices.
		const mb = 1 << 20
		dataMB := float64(ds.HeldBytes()) / mb
		hotMB := float64(srv.ReplicaStoreStats().HotBytes+co.DeviceStoreStats().HotBytes) / mb
		rest := peak - dataMB - hotMB
		fmt.Printf("rss: %.0f MB now, %.0f MB peak = dataset %.1f MB (training states and labels, rendered test split) + hot entries %.1f MB + %.0f MB more (%.0f B per device)\n",
			rss, peak, dataMB, hotMB, rest, rest*mb/float64(*devices))
	}
	fmt.Printf("%d devices × %d rounds in %s — one process, bounded concurrency.\n",
		*devices, cfg.Rounds, elapsed.Round(time.Millisecond))

	// The fingerprint digest covers the coordinator's whole finalised
	// history — across a crash and resume, not just this Run — so a
	// crash-recovery soak can pin a resumed run against an uninterrupted
	// one from the digests alone (sync engine, full participation).
	full := co.History()
	h := fnv.New64a()
	_, _ = h.Write([]byte(full.Fingerprint()))
	fmt.Printf("history fingerprint: %016x over %d rounds\n", h.Sum64(), len(full))
	if plan := chaos.Active(); plan != nil {
		for _, site := range chaos.Sites() {
			if plan.Armed(site) {
				fmt.Printf("chaos: %-20s hits=%d fired=%d\n", site, plan.Hits(site), plan.Fired(site))
			}
		}
	}
}

// printStoreStats prints one slot store's cumulative counters.
func printStoreStats(name string, st fedzkt.ReplicaStoreStats) {
	if st.Mode != fedzkt.ReplicaStoreSpill {
		fmt.Printf("%s: mode=%s (fully resident), %d slots hold a state / %.1f MB\n", name, st.Mode, st.HotEntries, float64(st.HotBytes)/1e6)
		return
	}
	fmt.Printf("%s: mode=%s, hot %d slots / %.1f MB, hit rate %.1f%%\n",
		name, st.Mode, st.HotEntries, float64(st.HotBytes)/1e6, 100*st.HitRate())
	fmt.Printf("%s: spill %d records, read %.1f MB / wrote %.1f MB, %d evictions, %d lazy init builds, %d faults\n",
		name, st.SpillRecords, float64(st.SpillReadBytes)/1e6, float64(st.SpillWriteBytes)/1e6,
		st.Evictions, st.InitBuilds, st.ReplicaFaults)
	fmt.Printf("%s: entry buffers %d built, %d slots made hot in a vacated one\n", name, st.BuffersBuilt, st.BuffersReused)
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
