package fedzkt

// This file is the round engine: the one stage machine every federation
// runs — Algorithm 1's loop, whatever carries the devices.
//
//	local stage    barrier → select → local phase
//	server stage   absorb → distill → publish → hand off → evaluate →
//	               finalise → checkpoint
//
// Two things parameterise it. The Fleet is the device side: the in-process
// Coordinator (devices on the scheduler pool) or the
// transport server's session layer (remote devices behind TCP sessions).
// Config.PipelineDepth D is the bounded staleness: round r's local phase
// trains on the parameters published after round r−1−D, enforced by
// delivering exactly that download — never a later one, even when the
// server runs ahead — before the round starts. Delivery points are
// therefore a pure function of (depth, round), which is what keeps the
// metrics byte-identical across worker counts for a fixed depth and seed.
//
// At depth 0 the barrier is the round itself: both stages run inline on
// the caller's goroutine (crash sites and durable checkpoints included),
// the hand-off delivers the round's downloads before it is evaluated, and
// evaluation reads the fleet's own device models — the paper's
// synchronous loop. At depth ≥ 1 the server stage runs on its own
// goroutine behind bounded channels, so round r+1's local phase overlaps
// round r's distillation; the uploads channel is the absorb staging
// buffer (round r+1's uploads wait in it until round r is distilled, so
// they cannot race its teacher ensemble), the hand-off queues the
// downloads for the barrier, and evaluation reads the server replicas,
// which after round r's transfer-back hold exactly what round r's
// download delivers while the device models may already be training a
// later round. Uploads and downloads are independent copies either way,
// which is all the isolation the stages need; an in-process device that
// follows its replica instead of keeping its download orders its reads
// against the server stage's writes itself (Coordinator.Deliver).

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Payload carries one model state between a fleet and the server: the
// codec container, exactly the bytes a real link carries, and the only
// form a state takes between a device's tensors and a replica slot. Each
// hop is one pass over the elements (encode from the live tensors, copy or
// decode into the slot, copy out of the slot, decode into the live
// tensors), in process as over TCP; either way the bytes live in the
// engine's recycled buffers (payloadBuffers), which whoever consumes a
// payload gives back. A payload is an independent copy, safe to hand
// across stages.
type Payload struct {
	Enc []byte
}

// Upload is one device's trained state on its way into the server
// replicas. Round is the round it was trained in: earlier than the round
// that absorbs it for a late upload inside a session fleet's staleness
// bound.
type Upload struct {
	ID, Round int
	Payload
}

// Fleet is the device side of a federation as the engine drives it.
type Fleet interface {
	// LocalPhase runs round's local phase (Algorithm 2) on the sampled
	// devices and returns the uploads to absorb, in absorb order: late
	// uploads of earlier rounds as they arrived, then this round's in
	// ascending device order. It books in m what only the fleet sees:
	// the devices that dropped out (Dropped, Injected), uploads it
	// discarded (DroppedUploads), and payload bytes where the fleet
	// prices them itself.
	LocalPhase(ctx context.Context, round int, active []int, m *fed.RoundMetrics) ([]Upload, error)
	// UploadRejected reports that the server refused u. A fleet whose
	// uploads are the program's own returns the error — a bug, fatal to
	// the run; a fleet relaying untrusted input returns nil and the
	// engine books the drop and carries on without the device.
	UploadRejected(u Upload, err error) error
	// Deliver hands device id the state published for it after round's
	// distillation.
	Deliver(round, id int, p Payload) error
	// EvaluateDevices reports the test accuracy of the given devices' own
	// models, or nil when the fleet holds none (remote sessions): the
	// engine then evaluates their server replicas. Only called at a
	// depth-0 round boundary, where device models are at rest.
	EvaluateDevices(ids []int) ([]float64, error)
	// CloseRound closes the books of the evaluated round m: whatever the
	// fleet owes its devices (a round summary) or the metrics (wire
	// bytes it measures rather than prices).
	CloseRound(m *fed.RoundMetrics) error
}

// Engine runs a federation's rounds over a Server core and a Fleet.
type Engine struct {
	cfg     Config
	ds      *data.Dataset
	server  *Server
	sampler sched.Sampler
	fleet   Fleet
	// payloads is the free list every upload and download buffer comes from
	// and goes back to, whichever fleet stages them.
	payloads *payloadBuffers

	// serverRound is the round the server stage is working on, set as it
	// starts one and read on its goroutine: the round a replica write
	// belongs to (Coordinator.unfollow stamps writes with it).
	serverRound int32
	// nextRound is the first round the next Run call executes: 1 for a
	// fresh federation, advanced past every finalised round, and restored
	// by Coordinator.LoadCheckpoint, so a cancelled run can be resumed.
	nextRound int
	// hist accumulates every finalised round's metrics across Run calls
	// (and across checkpoint save/load), so History covers the whole
	// federation even when the process crashed and resumed mid-way.
	hist fed.History
	// prevStore is the last round-boundary replica-store snapshot, diffed
	// into each round's metrics.
	prevStore ReplicaStoreStats
	// metrics is the registry view (obsinstr.go) every finalised round is
	// folded into. Purely observational.
	metrics *fedMetrics
}

// NewEngine builds the round engine for server's configuration over
// fleet; ds is the evaluation dataset.
func NewEngine(server *Server, ds *data.Dataset, fleet Fleet) (*Engine, error) {
	cfg := server.Config()
	sampler, err := buildSampler(cfg)
	if err != nil {
		return nil, err
	}
	// The free list is its own allocation: the process-wide registry keeps
	// a pointer to it until the next engine registers, and must pin no more
	// of this one than that.
	payloads := &payloadBuffers{}
	return &Engine{cfg: cfg, ds: ds, server: server, sampler: sampler, fleet: fleet, payloads: payloads, nextRound: 1,
		metrics: newFedMetrics(obs.Default(), server, payloads)}, nil
}

// buildSampler selects the client-sampling policy from the config:
// uniform-K when SampleK is set, otherwise the paper's active-fraction
// straggler model.
func buildSampler(cfg Config) (s sched.Sampler, err error) {
	if cfg.SampleK > 0 {
		s, err = sched.NewUniformK(cfg.SampleK)
	} else {
		s, err = sched.NewFraction(cfg.ActiveFraction)
	}
	if err != nil {
		return nil, fmt.Errorf("fedzkt: %w", err)
	}
	return s, nil
}

// Sampler exposes the client-sampling policy in effect.
func (e *Engine) Sampler() sched.Sampler { return e.sampler }

// TakePayload hands a fleet a recycled buffer, emptied, to stage a payload
// of architecture arch in, or nil when none is free. Whoever consumes the
// payload — the engine's absorb for an upload, the fleet for a download —
// gives the buffer back.
func (e *Engine) TakePayload(arch string) []byte { return e.payloads.take(arch) }

// GivePayload returns the buffer of a consumed payload of architecture
// arch to the free list. The caller must not touch it afterwards.
func (e *Engine) GivePayload(arch string, buf []byte) { e.payloads.give(arch, buf) }

// PayloadBufferStats reports how the payload buffers of uploads and
// downloads were served so far: by building one — at most as many as were
// ever in flight at once — or by reusing a returned one.
func (e *Engine) PayloadBufferStats() (built, reused int64) {
	return e.payloads.built.Load(), e.payloads.reused.Load()
}

// History returns the metrics of every round this federation has
// finalised — across Run calls, and across crash/resume when durable
// checkpoints carried the earlier rounds — as a copy.
func (e *Engine) History() fed.History { return slices.Clone(e.hist) }

// roundWork is one round's hand-off from the local stage to the server
// stage: the partially filled metrics, the uploads to absorb, and the
// round's clock and trace span, both closed when the round is finalised.
type roundWork struct {
	m       fed.RoundMetrics
	start   time.Time
	span    obs.SpanRef
	uploads []Upload
}

// downloadBatch is one round's published downloads: the replica of every
// device the round absorbed an upload from, after its transfer-back, in
// ascending device order.
type downloadBatch struct {
	round  int
	ids    []int
	states []Payload
}

// Run executes the remaining rounds and returns their metrics. On a fleet
// or server error, or when ctx is cancelled — checked at every stage
// boundary and between distillation iterations — it returns the wrapped
// first error alongside the rounds finalised so far, with the round
// cursor left on the first unfinalised one.
func (e *Engine) Run(ctx context.Context) (fed.History, error) {
	depth := e.cfg.PipelineDepth
	first, ran := e.nextRound, len(e.hist)
	// runCtx lets either stage stop the other: the server stage cancels it
	// on error, and a cancellation of ctx reaches mid-phase distillation
	// and queued device tasks through it.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Downloads are delivered on this goroutine only, in round order.
	lastDelivered := first - 1
	deliver := func(db downloadBatch) error {
		for i, id := range db.ids {
			if err := e.fleet.Deliver(db.round, id, db.states[i]); err != nil {
				return err
			}
		}
		lastDelivered = db.round
		return nil
	}

	// Depth 0: the server stage runs here, and its hand-off is the delivery.
	serve := func(w roundWork) error { return e.serverStage(runCtx, w, deliver) }
	var (
		uploads   chan roundWork
		downloads chan downloadBatch
		serverErr error // published by close(downloads)
	)
	if depth > 0 {
		// Capacity depth+1 covers every round the staleness rule allows in
		// flight, so neither stage blocks on a healthy peer.
		uploads = make(chan roundWork, depth+1)
		downloads = make(chan downloadBatch, depth+1)
		go func() {
			defer close(downloads)
			// This goroutine drains downloads until it is closed, so the
			// send cannot block for good.
			queue := func(db downloadBatch) error { downloads <- db; return nil }
			for {
				wait := time.Now()
				w, ok := <-uploads
				if !ok {
					return
				}
				w.m.UploadStall = time.Since(wait)
				if serverErr = e.serverStage(runCtx, w, queue); serverErr != nil {
					cancel()
					return
				}
			}
		}()
		serve = func(w roundWork) error {
			select {
			case uploads <- w:
			case <-runCtx.Done():
				w.span.End()
			}
			return nil
		}
	}

	rng := e.roundSampler(first)
	var err error
rounds:
	for round := first; round <= e.cfg.Rounds; round++ {
		// A process death before the round does any work: the recovery
		// baseline (resume re-runs this round).
		chaos.Crash(chaos.SiteCrashRoundStart)
		w := roundWork{m: fed.RoundMetrics{Round: round}}
		if need := round - 1 - depth; lastDelivered < need {
			wait := time.Now()
			for lastDelivered < need {
				db, ok := <-downloads
				if !ok {
					break rounds
				}
				if err = deliver(db); err != nil {
					break rounds
				}
			}
			w.m.DownloadStall = time.Since(wait)
		}
		if runCtx.Err() != nil {
			break
		}
		if err = e.localStage(runCtx, rng, &w); err != nil {
			break
		}
		if runCtx.Err() != nil {
			w.span.End()
			break
		}
		if err = serve(w); err != nil {
			break
		}
	}
	if uploads != nil {
		close(uploads)
		// Deliver what the server stage still publishes, so a clean run
		// ends with every device holding the freshest parameters.
		for db := range downloads {
			if err == nil {
				err = deliver(db)
			}
		}
		if err == nil {
			err = serverErr
		}
	}
	if err == nil && e.nextRound <= e.cfg.Rounds {
		// Stopped early without a stage error: only a cancellation does that.
		err = fmt.Errorf("fedzkt: run cancelled at round %d: %w", e.nextRound, context.Cause(runCtx))
	}
	return slices.Clone(e.hist[ran:]), err
}

// roundSampler returns the client-sampling RNG positioned at round next:
// the stream is sequential across rounds, so a resumed run replays the
// draws of the already-finalised rounds to stay on the sequence an
// uninterrupted run would see.
func (e *Engine) roundSampler(next int) *rand.Rand {
	rng := tensor.NewRand(e.cfg.Seed + 99)
	for r := 1; r < next; r++ {
		e.sampler.Sample(e.server.NumDevices(), rng)
	}
	return rng
}

// localStage selects round w.m.Round's participants and runs their local
// phase, leaving the uploads to absorb in w.
func (e *Engine) localStage(ctx context.Context, rng *rand.Rand, w *roundWork) (err error) {
	round := w.m.Round
	w.start = time.Now()
	w.span = tracer().Begin("fed", "round").WithRound(round)
	w.m.Active = e.sampler.Sample(e.server.NumDevices(), rng)
	localStart := time.Now()
	span := tracer().Begin("fed", "local_phase").WithRound(round).WithParent(w.span.ID())
	w.uploads, err = e.fleet.LocalPhase(ctx, round, w.m.Active, &w.m)
	span.End()
	if err != nil {
		w.span.End()
		return err
	}
	w.m.LocalElapsed = time.Since(localStart)
	return nil
}

// serverStage takes one round from its uploads to its finalised metrics.
// handOff receives the round's published downloads before the round is
// evaluated.
func (e *Engine) serverStage(ctx context.Context, w roundWork, handOff func(downloadBatch) error) error {
	m, round := w.m, w.m.Round
	defer w.span.End()
	e.serverRound = int32(round)

	db := downloadBatch{round: round}
	var err error
	if db.ids, err = e.absorb(&m, w.uploads); err != nil {
		return err
	}

	// Server update (Algorithm 3). Its spans render on their own trace
	// track: under the pipeline they overlap the next round's local phase.
	serverStart := time.Now()
	span := tracer().Begin("fed", "server_distill").WithRound(round).WithParent(w.span.ID()).WithTID(1)
	m.InputGradNorm, err = e.server.Distill(ctx, round)
	span.End()
	if err != nil {
		return fmt.Errorf("fedzkt: round %d: %w", round, err)
	}
	m.ServerElapsed = time.Since(serverStart)

	// Every device the round heard from gets its own updated parameters
	// back, once; the others keep stale models.
	for _, id := range db.ids {
		p, err := e.publish(id)
		if err != nil {
			return err
		}
		db.states = append(db.states, p)
	}
	if err := handOff(db); err != nil {
		return err
	}

	if round%e.cfg.EvalEvery == 0 || round == e.cfg.Rounds {
		span := tracer().Begin("fed", "evaluate").WithRound(round).WithParent(w.span.ID()).WithTID(1)
		err := e.evaluate(&m)
		span.End()
		if err != nil {
			return err
		}
	}
	e.finishRoundStats(&m)
	m.Elapsed = time.Since(w.start)
	if err := e.fleet.CloseRound(&m); err != nil {
		return err
	}
	e.metrics.observeRound(&m)
	// The cumulative history and the round cursor advance together, so a
	// durable checkpoint always snapshots a consistent boundary.
	e.hist = append(e.hist, m)
	e.nextRound = round + 1
	if err := e.maybeCheckpoint(round); err != nil {
		return err
	}
	// A process death at the finalised round boundary, after the durable
	// checkpoint: a depth-0 resume from here replays the rest of the run
	// bit-exactly.
	chaos.Crash(chaos.SiteCrashRoundEnd)
	return nil
}

// absorb installs a round's uploads into the server replicas in the
// order given and returns, ascending and without repeats, the devices it
// absorbed one from.
func (e *Engine) absorb(m *fed.RoundMetrics, uploads []Upload) ([]int, error) {
	ids := make([]int, 0, len(uploads))
	for _, u := range uploads {
		if err := e.server.AbsorbPayload(u.ID, u.Enc); err != nil {
			// A refused upload's buffer is left to the collector: only
			// buffers that held a valid container of their architecture are
			// recycled, so a fleet relaying untrusted input cannot plant one.
			if err := e.fleet.UploadRejected(u, fmt.Errorf("fedzkt: upload device %d: %w", u.ID, err)); err != nil {
				return nil, err
			}
			m.DroppedUploads++
			if u.Round == m.Round {
				m.Dropped = append(m.Dropped, u.ID)
				slices.Sort(m.Dropped)
			}
			continue
		}
		ref, _ := e.server.cohorts.ref(u.ID)    // absorbed, so registered
		e.payloads.give(ref.cohort.arch, u.Enc) // the slot keeps its own copy
		if u.Round == m.Round {
			m.Absorbed++
		} else {
			m.LateAbsorbed++
		}
		ids = append(ids, u.ID)
	}
	slices.Sort(ids)
	return slices.Compact(ids), nil
}

// publish returns device id's post-round replica in wire form.
func (e *Engine) publish(id int) (Payload, error) {
	ref, err := e.server.cohorts.ref(id)
	if err != nil {
		return Payload{}, err
	}
	b, err := e.server.cohorts.appendPayload(ref, e.payloads.take(ref.cohort.arch))
	return Payload{Enc: b}, err
}

// evaluate fills in round m's accuracies: the global model, and per
// device either the fleet's own models — at depth 0 they rest exactly at
// the round boundary, stragglers at their stale local state — or the
// server replicas.
func (e *Engine) evaluate(m *fed.RoundMetrics) (err error) {
	// Every device, or the deterministic EvalDevices-long prefix in the
	// scale regime.
	n := e.server.NumDevices()
	if e.cfg.EvalDevices > 0 && e.cfg.EvalDevices < n {
		n = e.cfg.EvalDevices
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	m.GlobalAcc = e.server.EvaluateGlobal(e.ds)
	if e.cfg.PipelineDepth == 0 {
		if m.DeviceAcc, err = e.fleet.EvaluateDevices(ids); err != nil {
			return err
		}
	}
	if m.DeviceAcc == nil {
		m.DeviceAcc = e.server.EvaluateReplicaSubset(e.ds, e.cfg.DistillBatch, e.cfg.Workers, ids)
	}
	m.MeanDeviceAcc = fed.Mean(m.DeviceAcc)
	return nil
}

// finishRoundStats folds the round's replica-store activity into its
// metrics: the delta of the server store's counters since the last round
// boundary, plus the drained replica-fault ids. None of these fields are
// fingerprinted — store traffic depends on hot-set sizing, which the
// arithmetic is independent of by construction.
func (e *Engine) finishRoundStats(m *fed.RoundMetrics) {
	st := e.server.ReplicaStoreStats()
	d := st.Sub(e.prevStore)
	e.prevStore = st
	m.StoreHits = d.Hits
	m.StoreMisses = d.Misses
	m.SpillReadBytes = d.SpillReadBytes
	m.SpillWriteBytes = d.SpillWriteBytes
	m.ReplicaFaults = e.server.TakeReplicaFaults()
}
