package fedzkt

import (
	"sync"

	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// This file binds the federation runtime to the observability substrate.
// Every round engine owns a fedMetrics, registered into the process-wide
// registry at construction (last-wins, so the newest engine owns the
// names on the live endpoint), and every layer's phase spans — the
// transport's session events included — go to the process-wide tracer. Nothing here feeds back into the round arithmetic:
// golden fingerprints are byte-identical with instrumentation enabled.

// tracer is the span sink for every fedzkt-layer phase span.
func tracer() *obs.Tracer { return obs.DefaultTracer() }

// fedMetrics is the engine's registry view: counters and histograms
// updated as each round finalises, whatever fleet ran it, plus scrape-time views over the
// server's live stats structs (which stay the source of truth — the
// legacy accessors keep returning them unchanged).
type fedMetrics struct {
	rounds         obs.Counter
	absorbed       obs.Counter
	lateAbsorbed   obs.Counter
	droppedUploads obs.Counter
	replicaFaults  obs.Counter
	bytesUp        obs.Counter
	bytesDown      obs.Counter

	localSeconds  obs.Histogram
	serverSeconds obs.Histogram
	roundSeconds  obs.Histogram

	globalAcc     obs.Gauge
	meanDeviceAcc obs.Gauge
}

// arenaGroup is one owner's arenas as a scrape sees them. An arena joins
// when its owner creates it (rarely, hence a plain mutex) and the gauges
// sum the arenas' own atomics, so a scrape never reads a running step's
// state. Worker-owned arenas are summed over workers: the registry has no
// labels.
type arenaGroup struct {
	mu     sync.Mutex
	arenas []*tensor.Arena
}

func (g *arenaGroup) add(a *tensor.Arena) {
	g.mu.Lock()
	g.arenas = append(g.arenas, a)
	g.mu.Unlock()
}

func (g *arenaGroup) sum(of func(*tensor.Arena) int64) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, a := range g.arenas {
		n += of(a)
	}
	return float64(n)
}

// register publishes the group as fedzkt_arena_<owner>_held_bytes (what
// the slabs and headers pin) and …_step_peak_bytes (the most bytes any
// step had live at once, buffers released mid-step not counted; the
// difference is the allocator's rounding plus what fragmentation cost).
func (g *arenaGroup) register(reg *obs.Registry, owner, what string) {
	reg.RegisterGaugeFunc("fedzkt_arena_"+owner+"_held_bytes", "bytes retained by "+what+" (slabs and tensor headers)",
		func() float64 { return g.sum((*tensor.Arena).HeldBytes) })
	reg.RegisterGaugeFunc("fedzkt_arena_"+owner+"_step_peak_bytes", "most storage bytes live at once in any step served by "+what+" (net of mid-step releases)",
		func() float64 { return g.sum((*tensor.Arena).StepPeakBytes) })
}

// newFedMetrics registers an engine's instruments and scrape-time views
// of its server's stats and its payload buffers into reg.
func newFedMetrics(reg *obs.Registry, srv *Server, payloads *payloadBuffers) *fedMetrics {
	fm := &fedMetrics{}
	reg.RegisterCounter("fedzkt_rounds_total", "communication rounds finalised", &fm.rounds)
	reg.RegisterCounter("fedzkt_uploads_absorbed_total", "fresh device uploads absorbed", &fm.absorbed)
	reg.RegisterCounter("fedzkt_uploads_late_total", "stale uploads absorbed into a later teacher window", &fm.lateAbsorbed)
	reg.RegisterCounter("fedzkt_uploads_dropped_total", "uploads discarded (stale, duplicate, or invalid)", &fm.droppedUploads)
	reg.RegisterCounter("fedzkt_replica_faults_total", "devices dropped from a round on replica load faults", &fm.replicaFaults)
	reg.RegisterCounter("fedzkt_wire_up_bytes_total", "payload bytes uploaded by devices", &fm.bytesUp)
	reg.RegisterCounter("fedzkt_wire_down_bytes_total", "payload bytes downloaded to devices", &fm.bytesDown)
	reg.RegisterHistogram("fedzkt_local_phase_seconds", "per-round on-device local phase wall time", &fm.localSeconds)
	reg.RegisterHistogram("fedzkt_server_phase_seconds", "per-round server distillation wall time", &fm.serverSeconds)
	reg.RegisterHistogram("fedzkt_round_seconds", "per-round wall time, local phase start to metrics finalised", &fm.roundSeconds)
	reg.RegisterGauge("fedzkt_global_accuracy", "server global model test accuracy at the last evaluated round", &fm.globalAcc)
	reg.RegisterGauge("fedzkt_mean_device_accuracy", "mean device test accuracy at the last evaluated round", &fm.meanDeviceAcc)

	// Scrape-time views over the server's live stats structs.
	reg.RegisterGaugeFunc("fedzkt_server_live_replicas", "replica modules resident across cohort pools",
		func() float64 { return float64(srv.LiveReplicas()) })
	reg.RegisterGaugeFunc("fedzkt_server_resident_state_bytes", "bytes resident in replica state slots",
		func() float64 { return float64(srv.ResidentStateBytes()) })
	srv.cohorts.counters.register(reg)
	reg.RegisterCounterFunc("fedzkt_store_spill_read_bytes_total", "bytes read back from spill files",
		func() float64 { return float64(srv.ReplicaStoreStats().SpillReadBytes) })
	reg.RegisterCounterFunc("fedzkt_store_spill_write_bytes_total", "bytes written to spill files",
		func() float64 { return float64(srv.ReplicaStoreStats().SpillWriteBytes) })
	reg.RegisterGaugeFunc("fedzkt_store_hot_entries", "replica slots resident in hot sets",
		func() float64 { return float64(srv.ReplicaStoreStats().HotEntries) })
	reg.RegisterGaugeFunc("fedzkt_store_spill_records", "replica records resident in spill files",
		func() float64 { return float64(srv.ReplicaStoreStats().SpillRecords) })
	registerMappedBytes(reg)
	reg.RegisterCounterFunc("fedzkt_payload_buffers_built_total", "upload/download payload buffers allocated (at most the peak number in flight)",
		func() float64 { return float64(payloads.built.Load()) })
	reg.RegisterCounterFunc("fedzkt_payload_buffers_reused_total", "uploads/downloads served by a recycled payload buffer",
		func() float64 { return float64(payloads.reused.Load()) })
	srv.arenaGauges.phase.register(reg, "phase", "the server's distillation phase arena")
	srv.arenaGauges.worker.register(reg, "server_worker", "the server's per-worker arenas, summed")
	return fm
}

// registerMappedBytes serves fedzkt_store_mapped_bytes, the bytes every
// store in the process holds mapped for slot buffers (slab):
// runtime.MemStats does not count them.
func registerMappedBytes(reg *obs.Registry) {
	reg.RegisterGaugeFunc("fedzkt_store_mapped_bytes", "bytes mapped for slot buffers by every store in the process, taken at slots' first writes (outside the Go heap)",
		func() float64 { return float64(mappedBytes.Load()) })
}

// registerFleetMetrics adds scrape-time views of an in-process fleet's
// device rigs to reg, and its device stores' entry buffers to the server's.
func registerFleetMetrics(reg *obs.Registry, rigs *rigStats, server, devices *storeCounters) {
	registerStoreBuffers(reg, server, devices)
	reg.RegisterCounterFunc("fedzkt_device_rig_builds_total", "device modules built by worker rigs (at most workers × architectures)",
		func() float64 { return float64(rigs.builds.Load()) })
	reg.RegisterCounterFunc("fedzkt_device_rig_reuses_total", "device materialisations (tasks and evaluations) served by a rig's live module",
		func() float64 { return float64(rigs.reuses.Load()) })
	rigs.step.register(reg, "rig_step", "the device rigs' step arenas, summed")
	rigs.task.register(reg, "rig_task", "the device rigs' task arenas, summed")
}

// observeRound folds one finalised round's metrics into the registry.
func (fm *fedMetrics) observeRound(m *fed.RoundMetrics) {
	fm.rounds.Inc()
	fm.absorbed.Add(int64(m.Absorbed))
	fm.lateAbsorbed.Add(int64(m.LateAbsorbed))
	fm.droppedUploads.Add(int64(m.DroppedUploads))
	fm.replicaFaults.Add(int64(len(m.ReplicaFaults)))
	fm.bytesUp.Add(m.BytesUp)
	fm.bytesDown.Add(m.BytesDown)
	fm.localSeconds.ObserveDuration(m.LocalElapsed)
	fm.serverSeconds.ObserveDuration(m.ServerElapsed)
	fm.roundSeconds.ObserveDuration(m.Elapsed)
	if len(m.DeviceAcc) > 0 || m.GlobalAcc != 0 {
		fm.globalAcc.Set(m.GlobalAcc)
		fm.meanDeviceAcc.Set(m.MeanDeviceAcc)
	}
}
