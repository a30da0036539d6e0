package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// traceResult is what the traced child reports: the per-layer metrics it
// can compute alone, and the stepped round durations the parent compares
// with the untraced run.
type traceResult struct {
	Layer     map[string]float64
	RoundMs   []float64 // stepped round spans, warm-up and eval round excluded
	Failed    []string
	MaxUpload int // bytes of the largest upload payload seen (frame probe size)
}

// stepper drives a federation round by round through the layers' public
// functions, with a span of the benchmark's own tracer around every
// call. It rebuilds what fedzkt.New builds — same seeds, same pool
// options, same sampler — so a stepped round does the work a round of
// Coordinator.Run does; only the driver differs.
type stepper struct {
	w       workload
	cfg     fedzkt.Config
	ds      *data.Dataset
	shards  [][]int
	in      model.Shape
	srv     *fedzkt.Server
	pool    *sched.Pool
	sampler sched.Sampler
	cdc     codec.Codec
	local   fed.LocalConfig
	// devices are the resident device models; nil under VirtualDevices,
	// where a round materialises only its sampled devices.
	devices  []*fed.Device
	roundRNG *rand.Rand
	tr       *obs.Tracer
	maxUp    int
}

// traceCapacity holds every span of a traced pass: at most ~6 spans per
// sampled device per round plus a handful per round.
const traceCapacity = 1 << 17

func newStepper(w workload, seed uint64, rounds int, spillDir string) (*stepper, error) {
	s := &stepper{w: w, cfg: w.config(seed, rounds, spillDir), tr: obs.NewTracer(traceCapacity)}
	if w.tcp {
		// The transport server partitions with seed+21 and has no pool;
		// its in-process twin trains the active devices on as many
		// workers as there are active devices, as the sessions do.
		s.ds = data.SynthMNIST(w.sizes, seed)
		s.shards = fedzkt.PartitionIID(s.ds.NumTrain(), w.devices, seed+21)
	} else {
		s.ds, s.shards = w.inputs(seed)
	}
	s.in = model.Shape{C: s.ds.C, H: s.ds.H, W: s.ds.W}
	cfg := s.cfg
	var err error
	if s.srv, err = fedzkt.NewServer(cfg, s.in, s.ds.Classes); err != nil {
		return nil, fmt.Errorf("building %s: %w", w.name, err)
	}
	s.cdc = s.srv.Codec()
	s.local = fed.LocalConfig{Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, LR: cfg.DeviceLR,
		Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay, ProxMu: cfg.ProxMu}
	if s.pool, err = sched.NewPool(sched.Options{
		Workers: cfg.Workers, FailureRate: cfg.FailureRate, FailureSeed: cfg.Seed ^ 0xFA117A1E,
		WorkerScratch: func() any { return ag.NewArena() },
	}); err != nil {
		return nil, err
	}
	if cfg.SampleK > 0 {
		s.sampler, err = sched.NewUniformK(cfg.SampleK)
	} else {
		p := cfg.ActiveFraction
		if p == 0 {
			p = 1
		}
		s.sampler, err = sched.NewFraction(p)
	}
	if err != nil {
		return nil, err
	}
	s.roundRNG = tensor.NewRand(cfg.Seed + 99)

	var initial []nn.StateDict
	if !cfg.VirtualDevices {
		s.devices = make([]*fed.Device, w.devices)
		initial = make([]nn.StateDict, w.devices)
		for i := range s.devices {
			m, err := s.build(i)
			if err != nil {
				return nil, err
			}
			s.devices[i] = fed.NewDevice(i, w.arch(i), m, data.NewSubset(s.ds, s.shards[i]))
			initial[i] = nn.CaptureState(m)
		}
	}
	reg := s.tr.Begin("fedzkt", "register")
	for i := 0; i < w.devices; i++ {
		var sd nn.StateDict
		if initial != nil {
			sd = initial[i]
		}
		id, err := s.srv.RegisterSized(w.arch(i), sd, len(s.shards[i]))
		if err != nil {
			return nil, err
		}
		if id != i {
			return nil, fmt.Errorf("device id mismatch: %d != %d", id, i)
		}
	}
	reg.End()
	return s, nil
}

// build constructs device id's model from its registration seed.
func (s *stepper) build(id int) (nn.Module, error) {
	return model.Build(s.w.arch(id), s.in, s.ds.Classes, tensor.NewRand(s.cfg.Seed+uint64(1000+id)))
}

// materialise rebuilds a virtual device for one round from the server's
// replica of it, as the virtual-device coordinator rebuilds it from its
// own store.
func (s *stepper) materialise(id int) (*fed.Device, error) {
	payload, _, err := s.srv.ReplicaPayload(id)
	if err != nil {
		return nil, err
	}
	m, err := s.build(id)
	if err != nil {
		return nil, err
	}
	d := fed.NewDevice(id, s.w.arch(id), m, data.NewSubset(s.ds, s.shards[id]))
	return d, d.DownloadPayload(payload)
}

func (s *stepper) begin(cat, name string, round int, parent obs.SpanRef) obs.SpanRef {
	return s.tr.Begin(cat, name).WithRound(round).WithParent(parent.ID())
}

// round steps one communication round: sample → local phase on the pool
// → upload → absorb → distill → publish → download → evaluate.
func (s *stepper) round(ctx context.Context, round int, evalDevices bool) error {
	rs := s.tr.Begin("trace", "round").WithRound(round)
	defer rs.End()

	sp := s.begin("sched", "sample", round, rs)
	active := s.sampler.Sample(s.w.devices, s.roundRNG)
	sp.End()

	// live holds the round's devices by sample position: the resident
	// ones, or the slots virtual devices materialise into.
	live := make([]*fed.Device, len(active))
	if s.devices != nil {
		for pos, id := range active {
			live[pos] = s.devices[id]
		}
	}
	lp := s.begin("sched", "local_phase", round, rs)
	tasks := make([]sched.Task, len(active))
	for pos, id := range active {
		tasks[pos] = sched.Task{Device: id, Run: func(ctx context.Context) error {
			if s.devices == nil {
				sp := s.begin("fed", "materialise", round, lp).WithTID(id)
				d, err := s.materialise(id)
				sp.End()
				if err != nil {
					return err
				}
				live[pos] = d
			}
			d := live[pos]
			rng := tensor.NewRand(s.cfg.Seed ^ (uint64(round)<<20 + uint64(id)<<4 + 0x5EED))
			d.Scratch, _ = sched.Scratch(ctx).(*ag.Arena)
			sp := s.begin("fed", "local_update", round, lp).WithTID(id)
			_, err := d.LocalUpdate(s.local, rng)
			sp.End()
			d.Scratch = nil
			return err
		}}
	}
	results := s.pool.RunRound(ctx, round, tasks)
	lp.End()

	var completed []*fed.Device
	for pos, r := range results {
		switch r.Status {
		case sched.StatusCompleted:
			completed = append(completed, live[pos])
		case sched.StatusFailed:
			return fmt.Errorf("round %d device %d: %w", round, r.Device, r.Err)
		}
	}

	identity := codec.Identity(s.cdc)
	dense := make([]nn.StateDict, len(completed))
	enc := make([][]byte, len(completed))
	for i, d := range completed {
		sp := s.begin("fed", "upload", round, rs)
		if identity {
			dense[i] = d.Upload()
		} else {
			var err error
			if enc[i], _, err = d.UploadPayload(s.cdc); err != nil {
				return err
			}
			s.maxUp = max(s.maxUp, len(enc[i]))
		}
		sp.End()
	}
	for i, d := range completed {
		sp := s.begin("fedzkt", "absorb", round, rs)
		var err error
		if identity {
			err = s.srv.Absorb(d.ID, dense[i])
		} else {
			err = s.srv.AbsorbPayload(d.ID, enc[i])
		}
		sp.End()
		if err != nil {
			return err
		}
	}

	sp = s.begin("fedzkt", "distill", round, rs)
	_, err := s.srv.Distill(ctx, round)
	sp.End()
	if err != nil {
		return err
	}

	for i, d := range completed {
		sp := s.begin("fedzkt", "publish", round, rs)
		var err error
		if identity {
			dense[i], err = s.srv.ReplicaState(d.ID)
		} else {
			enc[i], _, err = s.srv.ReplicaPayload(d.ID)
		}
		sp.End()
		if err != nil {
			return err
		}
	}
	for i, d := range completed {
		sp := s.begin("fed", "download", round, rs)
		var err error
		switch {
		case s.devices == nil:
			// The materialised model is gone after the round; what remains
			// of a virtual device's download is the decode.
			_, err = codec.Decode(enc[i])
		case identity:
			err = d.Download(dense[i])
		default:
			err = d.DownloadPayload(enc[i])
		}
		sp.End()
		if err != nil {
			return err
		}
	}

	// The transport loop evaluates the global model every round and never
	// the devices; the coordinator evaluates both, on the last round only.
	if s.w.tcp || evalDevices {
		sp := s.begin("fedzkt", "eval", round, rs)
		s.srv.EvaluateGlobal(s.ds)
		if evalDevices && !s.w.tcp {
			n := s.w.devices
			if e := s.cfg.EvalDevices; e > 0 && e < n {
				n = e
			}
			if s.devices != nil {
				fed.EvaluateAllParallel(s.devices[:n], s.ds, 64, s.cfg.Workers)
			} else {
				ids := make([]int, n)
				for i := range ids {
					ids[i] = i
				}
				s.srv.EvaluateReplicaSubset(s.ds, 64, s.cfg.Workers, ids)
			}
		}
		sp.End()
	}
	return nil
}

// runTraced is the traced pass: step every round, then read the layers'
// own counters and derive the step metrics from the recorded spans.
func runTraced(ctx context.Context, w workload, seed uint64, rounds int, scratch, traceDir string) (*traceResult, error) {
	s, err := newStepper(w, seed, rounds, scratch)
	if err != nil {
		return nil, err
	}
	defer s.srv.Close()
	for r := 1; r <= rounds; r++ {
		if err := s.round(ctx, r, r == rounds); err != nil {
			return nil, fmt.Errorf("stepping %s: %w", w.name, err)
		}
	}
	res := &traceResult{Layer: map[string]float64{}, MaxUpload: s.maxUp}
	if res.MaxUpload == 0 && s.devices != nil {
		// Identity path: uploads are dense dicts; the frame a transport
		// would carry is their float64 container.
		if b, err := codec.Encode(s.cdc, nn.CaptureState(s.devices[0].Model)); err == nil {
			res.MaxUpload = len(b)
		}
	}
	spans, err := readSpans(s.tr, traceDir, w.name)
	if err != nil {
		return nil, err
	}
	// The layers' counters are read before the probes disturb them.
	s.stepMetrics(res, spans, rounds)
	if err := s.probes(res, scratch); err != nil {
		return nil, err
	}
	return res, nil
}

// stepMetrics turns the recorded spans and the layers' public counters
// into per-layer metrics. Times are mean milliseconds per measured round.
func (s *stepper) stepMetrics(res *traceResult, spans []span, rounds int) {
	b := breakdown(spans)
	if len(b.rounds) != rounds {
		res.Failed = append(res.Failed, "trace-round-spans")
	}
	rs := measured(b.rounds)
	L := res.Layer
	for _, r := range rs {
		res.RoundMs = append(res.RoundMs, float64(b.roundUs[r])/1e3)
	}
	roundMs := meanOf(b.roundUs, rs)
	L["trace.round_ms"] = roundMs
	L["trace.unattributed_ms"] = meanOf(b.selfUs, rs)
	L["trace.spans"] = float64(s.tr.Recorded())
	for metric, key := range map[string]string{
		"sched.sample_ms":      "sched.sample",
		"sched.local_phase_ms": "sched.local_phase",
		"fed.materialise_ms":   "fed.materialise",
		"fed.local_update_ms":  "fed.local_update",
		"fed.upload_ms":        "fed.upload",
		"fed.download_ms":      "fed.download",
		"fedzkt.absorb_ms":     "fedzkt.absorb",
		"fedzkt.publish_ms":    "fedzkt.publish",
		"fedzkt.distill_ms":    "fedzkt.distill",
	} {
		L[metric] = b.meanMs(key, rs)
	}
	L["fed.local_update_calls"] = b.meanCalls("fed.local_update", rs)
	if roundMs > 0 {
		L["trace.unattributed_share"] = L["trace.unattributed_ms"] / roundMs
		L["fedzkt.distill_share"] = L["fedzkt.distill_ms"] / roundMs
	}
	// Evaluation: mean over the rounds that evaluated (the last round
	// in-process; every round for the transport twin).
	var evalRounds []int
	for _, r := range b.rounds {
		if b.calls["fedzkt.eval"][r] > 0 {
			evalRounds = append(evalRounds, r)
		}
	}
	L["fedzkt.eval_ms"] = b.meanMs("fedzkt.eval", evalRounds)

	// The children of the round span run one after another, so their
	// means plus the round's self time must rebuild the round.
	sum := L["trace.unattributed_ms"] + L["sched.sample_ms"] + L["sched.local_phase_ms"] +
		L["fed.upload_ms"] + L["fedzkt.absorb_ms"] + L["fedzkt.distill_ms"] +
		L["fedzkt.publish_ms"] + L["fed.download_ms"]
	sum += b.meanMs("fedzkt.eval", rs) // only the transport twin evaluates inside measured rounds
	if d := sum - roundMs; d > 0.01*roundMs+0.05 || d < -0.01*roundMs-0.05 {
		res.Failed = append(res.Failed, "trace-reconciles")
	}

	st := s.pool.Stats()
	workers := s.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if wall := b.meanMs("sched.local_phase", b.rounds) * float64(len(b.rounds)); wall > 0 {
		L["sched.pool_busy_share"] = float64(st.BusyTime()) / float64(time.Millisecond) / (float64(workers) * wall)
	}
	L["sched.completed"] = float64(st.Completed.Load())
	L["sched.dropped"] = float64(st.Dropped.Load())
	L["sched.injected"] = float64(st.Injected.Load())

	store := storeOf(s.srv)
	perRound := 1 / float64(rounds)
	L["fedzkt.store_hit_rate"] = store.HitRate
	L["fedzkt.store_prefetch_overlap"] = store.PrefetchOverlap
	L["fedzkt.store_evictions_per_round"] = float64(store.Evictions) * perRound
	L["fedzkt.store_init_builds_per_round"] = float64(store.InitBuilds) * perRound
	L["fedzkt.replica_faults"] = float64(store.ReplicaFaults)
	L["codec.spill_read_mb_per_round"] = float64(store.SpillReadBytes) / 1e6 * perRound
	L["codec.spill_write_mb_per_round"] = float64(store.SpillWriteBytes) / 1e6 * perRound
	L["codec.spill_records"] = float64(store.SpillRecords)
	L["fedzkt.resident_state_mb"] = float64(store.ResidentStateBytes) / 1e6
	L["fedzkt.live_replicas"] = float64(store.LiveReplicas)

	for _, sp := range spans {
		if sp.key() == "fedzkt.register" {
			L["fedzkt.register_us_per_device"] = float64(sp.Dur) / float64(s.w.devices)
		}
	}
}
