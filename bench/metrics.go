package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; consistency_test.go keeps the two equal.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which carry none).
	bound float64
}

// The end-to-end metrics are the ones the sizing host lets a run of
// twenty seconds resolve: memory and bytes. Round time, throughput and
// CPU time are per-layer metrics (engine.round_ms_p50,
// engine.rounds_per_s, engine.cpu_s_per_round) without a bound, because
// the host has slow hours and slow minutes: the same pass took 5.2 to
// 10.2 s of wall clock and 6.9 to 9.0 s of CPU within five minutes, ten
// runs spread (interquartile, as a share of the median) by up to 0.35 on
// wall clock and 0.21 on CPU time, and the median of ten moved by up to
// 0.4 from one hour to the next. The bounds below are about three times the
// largest spreads seen — 0.10 on wire bytes (which architectures a seed
// samples), 0.06 on allocation, 0.09 on peak RSS. See README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"wire_mb_per_round", "MB", "lower", 0.25},
	{"alloc_mb_per_round", "MB", "lower", 0.20},
}

var perLayer = []metricDef{
	// step: spans of the traced stepped round, mean ms per measured round
	{"sched.sample_ms", "ms", "lower", 0},
	{"sched.local_phase_ms", "ms", "lower", 0},
	{"sched.pool_busy_share", "share", "higher", 0},
	{"fed.materialise_ms", "ms", "lower", 0},
	{"fed.local_update_ms", "ms", "lower", 0},
	{"fed.local_update_calls", "count", "higher", 0},
	{"fed.upload_ms", "ms", "lower", 0},
	{"fed.download_ms", "ms", "lower", 0},
	{"fedzkt.absorb_ms", "ms", "lower", 0},
	{"fedzkt.publish_ms", "ms", "lower", 0},
	{"fedzkt.distill_ms", "ms", "lower", 0},
	{"fedzkt.distill_share", "share", "lower", 0},
	{"fedzkt.eval_ms", "ms", "lower", 0},
	{"fedzkt.register_us_per_device", "us", "lower", 0},
	{"trace.round_ms", "ms", "lower", 0},
	{"trace.unattributed_ms", "ms", "lower", 0},
	{"trace.unattributed_share", "share", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	// hist: the untraced passes — the history Run returns and the
	// benchmark's clock around it
	{"engine.setup_wall_s", "s", "lower", 0},
	{"engine.round_ms_p50", "ms", "lower", 0},
	{"engine.rounds_per_s", "1/s", "higher", 0},
	{"engine.cpu_s_per_round", "s", "lower", 0},
	{"engine.local_ms_p50", "ms", "lower", 0},
	{"engine.server_ms_p50", "ms", "lower", 0},
	{"engine.round_ms_p80", "ms", "lower", 0},
	{"engine.download_stall_ms_per_round", "ms", "lower", 0},
	{"engine.upload_stall_ms_per_round", "ms", "lower", 0},
	{"engine.gc_cycles", "count", "lower", 0},
	{"engine.gc_pause_ms_per_round", "ms", "lower", 0},
	{"engine.cpu_sys_share", "share", "lower", 0},
	{"fed.wire_up_mb_per_round", "MB", "lower", 0},
	{"fed.wire_down_mb_per_round", "MB", "lower", 0},
	{"fed.final_global_acc", "share", "higher", 0},
	{"fed.final_device_acc", "share", "higher", 0},
	// stats: the layers' public counters after the traced pass
	{"fedzkt.store_hit_rate", "share", "higher", 0},
	{"fedzkt.store_prefetch_overlap", "share", "higher", 0},
	{"fedzkt.store_evictions_per_round", "count", "lower", 0},
	{"fedzkt.store_init_builds_per_round", "count", "lower", 0},
	{"fedzkt.replica_faults", "count", "lower", 0},
	{"codec.spill_read_mb_per_round", "MB", "lower", 0},
	{"codec.spill_write_mb_per_round", "MB", "lower", 0},
	{"codec.spill_records", "count", "lower", 0},
	{"fedzkt.resident_state_mb", "MB", "lower", 0},
	{"fedzkt.live_replicas", "count", "lower", 0},
	{"sched.completed", "count", "higher", 0},
	{"sched.dropped", "count", "lower", 0},
	{"sched.injected", "count", "lower", 0},
	// probe: fixed-count micro-drives of one public function
	{"tensor.matmul128_us", "us", "lower", 0},
	{"ag.conv_fwd_bwd_us", "us", "lower", 0},
	{"optim.sgd_step_us", "us", "lower", 0},
	{"model.generator_fwd_ms", "ms", "lower", 0},
	{"model.generator_fwd_alloc_mb", "MB", "lower", 0},
	{"model.global_fwd_ms", "ms", "lower", 0},
	{"fed.local_step_ms", "ms", "lower", 0},
	{"codec.encode_mb_per_s", "MB/s", "higher", 0},
	{"codec.decode_mb_per_s", "MB/s", "higher", 0},
	{"codec.spill_write_us", "us", "lower", 0},
	{"codec.spill_read_us", "us", "lower", 0},
	{"fedzkt.replica_payload_hot_ms", "ms", "lower", 0},
	{"fedzkt.replica_payload_cold_ms", "ms", "lower", 0},
	{"fedzkt.checkpoint_save_ms", "ms", "lower", 0},
	{"fedzkt.checkpoint_mb", "MB", "lower", 0},
	{"transport.frame_rtt_us", "us", "lower", 0},
	{"transport.frame_mb_per_s", "MB/s", "higher", 0},
	{"obs.span_ns", "ns", "lower", 0},
	// transport: sessions seen from outside (zero in-process)
	{"transport.round_ms_outside_p50", "ms", "lower", 0},
	{"transport.overhead_ms", "ms", "lower", 0},
	{"transport.resumes", "count", "lower", 0},
	{"transport.dropped_uploads", "count", "lower", 0},
	{"transport.fingerprint_stable", "bool", "higher", 0},
}

// outcome is one workload's assembled result.
type outcome struct {
	values   map[string]float64
	failed   []string // correctness checks that failed, by name
	findings []string // observations worth a line, not failures
	// attempted and failedOps count sampled device-rounds.
	attempted, failedOps int
	// fingerprintStable is whether every pass returned the same
	// History.Fingerprint.
	fingerprintStable bool
}

func (o *outcome) fail(check string) { o.failed = append(o.failed, check) }

// samples pools the per-round values of every pass, excluding rounds 1–2
// (page-fault warm-up) and the last round (the only one that evaluates).
func samples(passes []*passResult, field func(roundRec) float64) []float64 {
	var out []float64
	for _, p := range passes {
		if len(p.Rounds) <= 3 {
			continue
		}
		for _, r := range p.Rounds[2 : len(p.Rounds)-1] {
			out = append(out, field(r))
		}
	}
	return out
}

// roundP50 is the median round time of the better pass. Pooling the
// passes would let a disturbed pass drag the median; on the sizing host
// the better pass's median repeats about three times more closely.
func roundP50(passes []*passResult) float64 {
	return bestOf(perPass(passes, func(p *passResult) float64 {
		return median(samples([]*passResult{p}, func(r roundRec) float64 { return r.ElapsedMs }))
	}), false)
}

func perPass(passes []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// assemble runs the cross-pass checks and fills the operation counts;
// endToEndMetrics and layerMetrics add the values.
func assemble(w workload, passes []*passResult) *outcome {
	o := &outcome{values: map[string]float64{}}
	for _, p := range passes {
		o.failed = append(o.failed, p.Failed...)
		ops, bad := 0, 0
		for _, r := range p.Rounds {
			ops += r.Active
			bad += r.Active - r.Absorbed - r.Injected + r.DroppedUploads
		}
		if p.RunErr != "" {
			o.fail("run-error: " + p.RunErr)
			bad = ops
		}
		o.attempted += ops
		o.failedOps += bad
		checkStore(w, o, p.Store)
	}
	// In-process runs are deterministic to the byte. Over transport the
	// totals repeat but which round books an asynchronously written frame
	// does not, so there a mismatch is reported as a metric instead.
	o.fingerprintStable = true
	for _, p := range passes[1:] {
		if p.Fingerprint != passes[0].Fingerprint {
			o.fingerprintStable = false
		}
	}
	if !o.fingerprintStable && !w.tcp {
		o.fail("fingerprint-identical")
	}
	return o
}

// checkStore pins which workloads exercise the spill store: its counters
// are exactly zero on the memory-store workloads and all positive on the
// spill workload.
func checkStore(w workload, o *outcome, s storeRec) {
	if w.tcp {
		return
	}
	spillWork := []int64{s.Misses, s.Evictions, s.InitBuilds, s.SpillReadBytes, s.SpillWriteBytes, int64(s.SpillRecords)}
	if w.cfg.ReplicaStore == "spill" {
		for _, c := range spillWork {
			if c <= 0 {
				o.fail("spill-store-exercised")
				return
			}
		}
		return
	}
	for _, c := range spillWork {
		if c != 0 {
			o.fail("memory-store-bypasses-spill")
			return
		}
	}
	if s.HitRate != 1 {
		o.fail("memory-store-bypasses-spill")
	}
}

// roundCount is the pass's round count as a divisor.
func roundCount(p *passResult) float64 { return float64(max(len(p.Rounds), 1)) }

// betterPass records the better pass's value of a timing metric, and a
// finding when the passes disagree by more than a tenth.
func betterPass(o *outcome, name string, passes []*passResult, higher bool, f func(*passResult) float64) {
	vals := perPass(passes, f)
	o.values[name] = bestOf(vals, higher)
	if s := spread(vals); s > 0.10 {
		o.findings = append(o.findings, fmt.Sprintf("%s pass-to-pass spread %.1f%%", name, 100*s))
	}
}

// endToEndMetrics computes the end-to-end metrics. Allocation takes the
// better pass; byte counts must repeat across passes.
func endToEndMetrics(w workload, o *outcome, passes []*passResult, setupS float64) {
	v := o.values
	v["setup_s"] = setupS
	betterPass(o, "alloc_mb_per_round", passes, false, func(p *passResult) float64 { return float64(p.AllocBytes) / 1e6 / roundCount(p) })
	v["peak_rss_mb"] = bestOf(perPass(passes, func(p *passResult) float64 { return p.PeakRSSMB }), true)

	wire := make([]int64, len(passes))
	for i, p := range passes {
		for _, r := range p.Rounds {
			wire[i] += r.BytesUp + r.BytesDown
		}
	}
	// In-process the bytes repeat exactly. Over transport the last device
	// to register may or may not be attached when round 1's train requests
	// go out; when it is not, the attach event re-sends the request and a
	// ~70-byte frame more or less crosses the wire.
	lo, hi := wire[0], wire[0]
	for _, b := range wire[1:] {
		lo, hi = min(lo, b), max(hi, b)
	}
	if hi != lo && (!w.tcp || float64(hi-lo) > 1e-4*float64(lo)) {
		o.fail("wire-bytes-identical")
	}
	v["wire_mb_per_round"] = float64(wire[0]) / 1e6 / roundCount(passes[0])

	// A synchronous run is nothing but its rounds: their Elapsed must add
	// up to the wall clock around Run.
	if w.cfg.PipelineDepth == 0 && !w.tcp {
		for _, p := range passes {
			sum := 0.0
			for _, r := range p.Rounds {
				sum += r.ElapsedMs
			}
			if gap := math.Abs(p.WallS*1e3-sum) / (p.WallS * 1e3); gap > 0.05 {
				o.findings = append(o.findings, fmt.Sprintf("Σ Elapsed differs from wall clock around Run by %.1f%%", 100*gap))
			}
		}
	}
}

// layerMetrics computes every per-layer metric: hist values from the
// untraced passes, step/stats/probe values from the traced child.
func layerMetrics(w workload, o *outcome, passes []*passResult, tr *traceResult) {
	v := o.values
	for _, d := range perLayer {
		v[d.name] = 0
	}
	for name, x := range tr.Layer {
		v[name] = x
	}
	o.failed = append(o.failed, tr.Failed...)

	v["engine.setup_wall_s"] = median(perPass(passes, func(p *passResult) float64 { return p.SetupWallS }))
	v["engine.round_ms_p50"] = roundP50(passes)
	betterPass(o, "engine.rounds_per_s", passes, true, func(p *passResult) float64 { return roundCount(p) / p.WallS })
	betterPass(o, "engine.cpu_s_per_round", passes, false, func(p *passResult) float64 { return (p.CPUUserS + p.CPUSysS) / roundCount(p) })
	elapsed := samples(passes, func(r roundRec) float64 { return r.ElapsedMs })
	v["engine.local_ms_p50"] = median(samples(passes, func(r roundRec) float64 { return r.LocalMs }))
	v["engine.server_ms_p50"] = median(samples(passes, func(r roundRec) float64 { return r.ServerMs }))
	if p80, ok := tailPercentile(elapsed, 0.8); ok {
		v["engine.round_ms_p80"] = p80
	}
	v["engine.download_stall_ms_per_round"] = mean(samples(passes, func(r roundRec) float64 { return r.DownloadStallMs }))
	v["engine.upload_stall_ms_per_round"] = mean(samples(passes, func(r roundRec) float64 { return r.UploadStallMs }))

	// Resource figures come from the pass with the better wall clock, as
	// the end-to-end timing metrics do.
	best := passes[0]
	for _, p := range passes[1:] {
		if p.WallS < best.WallS {
			best = p
		}
	}
	n := roundCount(best)
	v["engine.gc_cycles"] = float64(best.GCCycles)
	v["engine.gc_pause_ms_per_round"] = best.GCPauseMs / n
	if cpu := best.CPUUserS + best.CPUSysS; cpu > 0 {
		v["engine.cpu_sys_share"] = best.CPUSysS / cpu
	}
	var up, down int64
	for _, r := range best.Rounds {
		up += r.BytesUp
		down += r.BytesDown
	}
	v["fed.wire_up_mb_per_round"] = float64(up) / 1e6 / n
	v["fed.wire_down_mb_per_round"] = float64(down) / 1e6 / n
	v["fed.final_global_acc"] = best.GlobalAcc
	v["fed.final_device_acc"] = best.DeviceAcc

	// The stepped rounds are compared with the untraced ones where they
	// do the same work in the same order: a synchronous in-process run
	// (the gap is what spans and stepping cost) and the transport run
	// (the gap is what sessions, frames and acks add). A pipelined round's
	// Elapsed is an in-flight latency by design, so there it stays 0.
	untraced, stepped := roundP50(passes), median(tr.RoundMs)
	switch {
	case untraced == 0 || stepped == 0:
	case w.tcp:
		v["transport.overhead_ms"] = untraced - stepped
	case w.cfg.PipelineDepth == 0:
		pct := 100 * (stepped - untraced) / untraced
		v["trace.overhead_pct"] = pct
		if math.Abs(pct) > 10 {
			o.findings = append(o.findings, fmt.Sprintf("trace.overhead_pct %.1f%% beyond ±10%%", pct))
		}
	}
	if w.tcp {
		var outside []float64
		dropped := 0
		for _, p := range passes {
			// The first two intervals are warm-up rounds, as in samples.
			if len(p.OutsideMs) > 2 {
				outside = append(outside, p.OutsideMs[2:]...)
			}
			for _, r := range p.Rounds {
				dropped += r.DroppedUploads
			}
			v["transport.resumes"] += float64(p.Resumes)
		}
		v["transport.round_ms_outside_p50"] = median(outside)
		v["transport.dropped_uploads"] = float64(dropped)
		if o.fingerprintStable {
			v["transport.fingerprint_stable"] = 1
		}
	}
	if share := v["trace.unattributed_share"]; share > 0.05 {
		o.findings = append(o.findings, fmt.Sprintf("trace.unattributed_share %.3f above 0.05", share))
	}
}

// checkAccuracy holds a workload that learns to its accuracy floor.
func checkAccuracy(w workload, o *outcome, passes []*passResult) {
	for _, p := range passes {
		if p.DeviceAcc < w.minDeviceAcc {
			o.fail(fmt.Sprintf("accuracy-floor (mean device accuracy %.3f < %.2f)", p.DeviceAcc, w.minDeviceAcc))
			return
		}
	}
}
