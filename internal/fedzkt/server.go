package fedzkt

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/optim"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Server is the FedZKT server side in isolation: the global model F, the
// generator G, and one replica per registered device, organised into
// architecture cohorts (see cohort.go). It implements the two ServerUpdate
// phases of Algorithm 3 and is shared by the in-process Coordinator and
// the networked transport binaries.
//
// With TeachersPerIter = 0 (the default) the server runs the paper-exact
// full-ensemble semantics, byte-identical to the pre-cohort
// implementation. With TeachersPerIter = T > 0 each distillation iteration
// draws T replica teachers uniformly and transfers knowledge back into a
// rotating window of at most T of the round's participants — the devices
// whose uploads it absorbed, the only ones that download — so the
// per-iteration server cost is O(T) rather than O(devices).
//
// With ReplicaStore = "spill" the replica slots rest in a bounded hot set
// over spill files (replicastore.go) and the server holds memory
// proportional to the hot-set size rather than the device count; Close
// releases the spill files.
type Server struct {
	cfg Config
	in  model.Shape
	cls int

	cohorts *cohortSet
	codec   codec.Codec

	// spillDirOwned marks a spill directory the server created itself, and
	// removes on Close.
	spillDirOwned bool
	closeOnce     sync.Once
	closeErr      error

	// seedModules caches one module per architecture for rebuilding
	// virgin slots (seededSlot); seedMu serialises its use.
	seedMu      sync.Mutex
	seedModules map[string]nn.Module

	global      nn.Module
	gen         *model.Generator
	globalOpt   *optim.SGD
	genOpt      *optim.Adam
	globalSched *optim.MultiStepLR
	genSched    *optim.MultiStepLR

	// phase is the step-scoped arena of the single-goroutine distillation
	// phases (generator/global steps, the shared generated batch and
	// distillation targets of the transfer-back, global evaluation). It is
	// reset at each step boundary — after the optimiser consumed the
	// gradients, and only once concurrent readers of the iteration's
	// shared tensors have joined.
	phase *ag.Arena
	// workerArenas are the per-worker arenas of the parallel sections
	// (adversarial teacher forwards, transfer-back replica steps, replica
	// evaluation), grown on the caller's goroutine before a fan-out so
	// workers never mutate the slice. Worker w is the only goroutine
	// touching workerArenas[w] during a fan-out.
	workerArenas []*ag.Arena
	// arenaGauges is what a metrics scrape may read of the arenas above
	// (obsinstr.go); a worker arena joins in ensureWorkerArenas.
	arenaGauges struct{ phase, worker arenaGroup }
	// outScratch is the reusable teacher-output slice of the adversarial
	// fan-out; holds only pointers, overwritten every iteration.
	outScratch []*ag.Variable
	// teachers is sampled mode's teacher-subset policy (teacherSampler).
	teachers sched.UniformK

	// absorbed lists the devices Absorb and AbsorbPayload installed an
	// upload for since the last Distill — and the depth-0 device tasks
	// that wrote their trained state into their replica themselves
	// (Coordinator.release) — the round's participants, whose replicas a
	// sampled transfer-back distils into. Distill and a checkpoint load
	// clear it.
	absorbMu sync.Mutex
	absorbed []int
}

// NewServer constructs the server side for a dataset signature (input
// shape + class count). Devices are registered afterwards. Call Close
// when done — a no-op for the in-memory store, releasing the spill files
// for the spill store.
func NewServer(cfg Config, in model.Shape, classes int) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cdc, err := codec.Get(cfg.StateCodec)
	if err != nil {
		return nil, fmt.Errorf("fedzkt: %w", err)
	}
	global, err := model.Build(cfg.GlobalArch, in, classes, tensor.NewRand(cfg.Seed+7))
	if err != nil {
		return nil, fmt.Errorf("fedzkt: global model: %w", err)
	}
	spillDir, spillDirOwned := "", false
	if cfg.ReplicaStore == ReplicaStoreSpill {
		if spillDir = cfg.SpillDir; spillDir == "" {
			if spillDir, err = os.MkdirTemp("", "fedzkt-spill-*"); err != nil {
				return nil, fmt.Errorf("fedzkt: creating spill dir: %w", err)
			}
			spillDirOwned = true
		}
	}
	s := &Server{
		cfg:           cfg,
		in:            in,
		cls:           classes,
		codec:         cdc,
		spillDirOwned: spillDirOwned,
		global:        global,
		gen:           model.NewGenerator(cfg.ZDim, in, tensor.NewRand(cfg.Seed+13)),
		phase:         ag.NewArena(),
		seedModules:   make(map[string]nn.Module),
	}
	s.arenaGauges.phase.add(s.phase.T)
	s.cohorts = newCohortSet(cohortOptions{
		lr:       cfg.ServerLR,
		codec:    cdc,
		spillDir: spillDir,
		hotSet:   cfg.HotSet,
		teachers: cfg.TeachersPerIter,
		initSlot: s.seededSlot,
		reseed:   s.reseed,
		build:    s.buildReplica,
	})
	s.globalOpt = optim.NewSGD(global.Params(), cfg.ServerLR, 0.9, 0)
	s.genOpt = optim.NewAdam(s.gen.Params(), cfg.GenLR)
	totalIters := cfg.Rounds * cfg.DistillIters
	s.globalSched = optim.PaperSchedule(s.globalOpt, totalIters)
	s.genSched = optim.PaperSchedule(s.genOpt, totalIters)
	return s, nil
}

// seededSlot appends the encoding of device id's seeded registration state
// to dst — the defined content of a virgin slot, bit-identical to what eager
// registration would have stored — rebuilt on the slot's first touch. One
// cached module per architecture is re-seeded in place for every such
// rebuild (checkouts on the server's fan-outs and payload reads for
// downloads reach here concurrently, hence the lock, held until the
// module's tensors have been encoded).
func (s *Server) seededSlot(arch string, id int, dst []byte) ([]byte, error) {
	s.seedMu.Lock()
	defer s.seedMu.Unlock()
	m, ok := s.seedModules[arch]
	if ok {
		if err := s.reseed(m, id); err != nil {
			return nil, err
		}
	} else {
		var err error
		if m, err = model.Build(arch, s.in, s.cls, tensor.NewRand(fed.DeviceSeed(s.cfg.Seed, id))); err != nil {
			return nil, err
		}
		s.seedModules[arch] = m
	}
	return s.codec.Append(dst, nn.CaptureState(m))
}

// reseed re-draws device id's seeded registration state into m in place,
// bit-identical to the build registration would have made: how a virgin
// slot that lends no state (under the exact codec, or a device's) is made
// resident.
func (s *Server) reseed(m nn.Module, id int) error {
	return model.Reinit(m, tensor.NewRand(fed.DeviceSeed(s.cfg.Seed, id)))
}

// Close releases the spill store's files (removing the spill directory
// when the server created it). A no-op for the memory store. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.cohorts.close()
		if s.spillDirOwned {
			if err := os.RemoveAll(s.cohorts.spillDir); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Global exposes the global model F.
func (s *Server) Global() nn.Module { return s.global }

// Generator exposes the generator G.
func (s *Server) Generator() *model.Generator { return s.gen }

// NumDevices returns the number of registered devices.
func (s *Server) NumDevices() int { return s.cohorts.numDevices() }

// NumCohorts returns the number of distinct registered architectures.
func (s *Server) NumCohorts() int { return s.cohorts.numCohorts() }

// LiveReplicas returns how many live replica modules the cohort pools
// currently retain — the server-memory quantity the cohort refactor
// bounds (per-device parameter data always stays resident in the slots).
func (s *Server) LiveReplicas() int { return s.cohorts.liveModules() }

// Codec returns the state codec encoding this server's replica slots,
// wire payloads and checkpoints.
func (s *Server) Codec() codec.Codec { return s.codec }

// ResidentStateBytes returns the total container bytes of the replica
// slots that hold a state: the hot set's under the spill store (spilled
// members cost nothing), every written slot's under the memory store
// (virgin slots hold none). This is the per-device
// memory quantity the quantised codecs shrink up to 8× and the spill store
// bounds; live pooled modules are accounted separately via LiveReplicas.
func (s *Server) ResidentStateBytes() int64 { return s.cohorts.storeStats().HotBytes }

// ReplicaStoreStats snapshots the replica store: residency, hot-set hit
// rate and spill traffic. Counters are cumulative; callers diff snapshots
// (ReplicaStoreStats.Sub) for per-round deltas.
func (s *Server) ReplicaStoreStats() ReplicaStoreStats { return s.cohorts.storeStats() }

// TakeReplicaFaults drains the ids of members dropped from distillation
// or evaluation because their stored replica bytes failed to load or
// decode (a corrupt spill record degrades the round instead of killing
// the process). Sorted ascending, deduped.
func (s *Server) TakeReplicaFaults() []int { return s.cohorts.takeFaults() }

// Register adds a device with the given architecture and initial state,
// returning its assigned id. The server files the device into its
// architecture cohort. With a nil initial state — what every caller
// outside bench/ passes: the coordinator, and the transport at a Hello —
// the replica is the device's seeded initialisation and the slot is
// virgin: no module is built and nothing is stored until the slot is
// first written, and a read reconstructs the seeded state, in any store
// and under any codec. Given initial parameters (bench/, through
// RegisterSized) it validates them against the architecture and stores
// their encoding, building no module.
func (s *Server) Register(arch string, initial nn.StateDict) (int, error) {
	id := s.cohorts.numDevices()
	got, err := s.cohorts.register(arch, initial)
	if err != nil {
		return 0, fmt.Errorf("fedzkt: register device %d: %w", id, err)
	}
	return got, nil
}

// buildReplica builds a module of arch seeded for device id. Pool modules
// have a member's state installed before every use, so their own initial
// values never matter; the RNG only has to be valid.
func (s *Server) buildReplica(arch string, id int) (nn.Module, error) {
	return model.Build(arch, s.in, s.cls, tensor.NewRand(s.cfg.Seed+uint64(2000+id)))
}

// PayloadSize returns the length of device id's state container in the
// server's codec — the exact length of any valid upload or download of
// it — from its architecture's signature; nothing is encoded.
func (s *Server) PayloadSize(id int) (int, error) {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return 0, err
	}
	return codec.Size(s.codec, ref.cohort.sig.names, ref.cohort.sig.shapes), nil
}

// RegisterSized is Register; the data size is ignored.
//
// Deprecated: no server phase reads a device's data size. Use Register.
func (s *Server) RegisterSized(arch string, initial nn.StateDict, _ int) (int, error) {
	return s.Register(arch, initial)
}

// Absorb installs a device's uploaded parameters into its server replica,
// validating the state-dict keys and tensor sizes against the registered
// architecture so a drifted peer fails loudly. Under a quantised codec
// the upload is encoded into the replica slot — absorption is the point
// where server-resident state becomes compact.
func (s *Server) Absorb(id int, upload nn.StateDict) error {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return fmt.Errorf("fedzkt: absorb: %w", err)
	}
	if err := s.cohorts.installDict(ref, upload); err != nil {
		return fmt.Errorf("fedzkt: absorb device %d: %w", id, err)
	}
	s.noteAbsorbed(id)
	return nil
}

// noteAbsorbed records id as a participant of the round being absorbed.
func (s *Server) noteAbsorbed(id int) {
	s.absorbMu.Lock()
	s.absorbed = append(s.absorbed, id)
	s.absorbMu.Unlock()
}

// takeAbsorbed drains the participants recorded since the last call,
// sorted ascending and deduped.
func (s *Server) takeAbsorbed() []int {
	s.absorbMu.Lock()
	ids := s.absorbed
	s.absorbed = nil
	s.absorbMu.Unlock()
	slices.Sort(ids)
	return slices.Compact(ids)
}

// AbsorbPayload installs a device's uploaded codec container into its
// server replica, with the same strict layout validation as Absorb. The
// container is self-describing, so payloads survive codec configuration
// changes between peers; under a quantised codec the validated bytes of
// a same-codec payload are adopted verbatim — the wire format is the
// slot format — while a foreign-dtype payload is re-encoded so the slot
// keeps the configured codec's invariants.
func (s *Server) AbsorbPayload(id int, payload []byte) error {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return fmt.Errorf("fedzkt: absorb: %w", err)
	}
	if err := s.cohorts.installPayload(ref, payload); err != nil {
		return fmt.Errorf("fedzkt: absorb device %d: %w", id, err)
	}
	s.noteAbsorbed(id)
	return nil
}

// CheckPayload validates a container's structure and headers — tensor
// names and element counts, no element work — against device id's
// registered architecture: what AbsorbPayload would refuse, found before
// the payload is counted or stored.
func (s *Server) CheckPayload(id int, payload []byte) error {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return err
	}
	return ref.cohort.checkPayload(payload)
}

// ReplicaState returns a dense deep copy of device id's replica
// parameters: exactly the values a download would deliver (under a
// quantised codec, the decoded slot).
func (s *Server) ReplicaState(id int) (nn.StateDict, error) {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return nil, err
	}
	return s.cohorts.stateOf(ref)
}

// ReplicaPayload returns device id's replica slot in wire form — the
// codec container a download carries — plus its element count for
// traffic accounting.
func (s *Server) ReplicaPayload(id int) ([]byte, int, error) {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return nil, 0, err
	}
	b, err := s.cohorts.appendPayload(ref, nil)
	return b, ref.cohort.sig.numel, err
}

// Distill runs both ServerUpdate phases of Algorithm 3 for one round:
// adversarial zero-shot distillation into F, then transfer back into the
// replicas — every replica in exact mode, the participants absorbed since
// the previous Distill in sampled mode (the set is consumed here). It
// returns the mean per-sample ‖∇ₓL‖ when probing is enabled.
// ctx is checked between distillation iterations, so cancelling it stops
// a long phase mid-flight (returning the wrapped context error) instead
// of only between rounds; the phase's optimiser state stays wherever the
// last completed iteration left it.
func (s *Server) Distill(ctx context.Context, round int) (float64, error) {
	if s.cohorts.numDevices() == 0 {
		return 0, fmt.Errorf("fedzkt: distill with no registered devices")
	}
	participants := s.takeAbsorbed()
	advSpan := tracer().Begin("distill", "adversarial_phase").WithRound(round)
	gn, err := s.adversarialPhase(ctx, round)
	advSpan.End()
	if err != nil {
		return 0, err
	}
	tbSpan := tracer().Begin("distill", "transfer_back").WithRound(round)
	err = s.transferBackPhase(ctx, round, participants)
	tbSpan.End()
	if err != nil {
		return 0, err
	}
	return gn, nil
}

// ensureWorkerArenas grows the per-worker arena pool to n on the calling
// goroutine, before a fan-out references them.
func (s *Server) ensureWorkerArenas(n int) {
	for len(s.workerArenas) < n {
		wa := ag.NewArena()
		s.workerArenas = append(s.workerArenas, wa)
		s.arenaGauges.worker.add(wa.T)
	}
}

// resetStep recycles everything one adversarial step allocated: the
// worker arenas holding the teachers' tapes, then the phase arena holding
// the batch, the student's tape and the noise.
func (s *Server) resetStep() {
	for _, wa := range s.workerArenas {
		wa.Reset()
	}
	s.phase.Reset()
}

// teachersPerIter returns the effective per-iteration teacher count: 0 for
// the exact full-ensemble mode, otherwise TeachersPerIter clamped to the
// federation size.
func (s *Server) teachersPerIter() int {
	t := s.cfg.TeachersPerIter
	if n := s.cohorts.numDevices(); t > n {
		t = n
	}
	return t
}

// teacherSampler returns the per-iteration teacher-subset policy: a
// uniform draw of t without replacement, on the round scheduler's client
// sampler. It is kept across iterations and phases, and rebuilt only when
// t changes, so the buffer it shuffles in is reused.
func (s *Server) teacherSampler(t int) sched.Sampler {
	if s.teachers.K != t {
		smp, err := sched.NewUniformK(t)
		if err != nil {
			panic(fmt.Sprintf("fedzkt: teacher sampler: %v", err)) // t > 0 by construction
		}
		s.teachers = smp
	}
	return s.teachers
}

// adversarialPhase is the first half of Algorithm 3: alternating generator
// (max) and global model (min) steps on the disagreement loss over the
// frozen teacher ensemble — the full ensemble in exact mode, a freshly
// sampled T-subset per iteration in sampled mode.
func (s *Server) adversarialPhase(ctx context.Context, round int) (float64, error) {
	cfg := s.cfg
	rng := tensor.NewRand(cfg.Seed ^ (uint64(round)<<24 + 0xADE))

	t := s.teachersPerIter()
	// Sampled mode draws teachers on their own RNG, so the generator's z
	// draws stay on the same sequence as in exact mode.
	teacherRNG := tensor.NewRand(cfg.Seed ^ (uint64(round)<<24 + 0x7EAC))

	// Teachers are fixed functions this round: frozen and in eval mode.
	// In exact mode the whole ensemble stays resident for the phase, as in
	// the pre-cohort implementation.
	var phaseLeases []*replicaLease
	if t == 0 {
		phaseLeases = compactLeases(s.cohorts.checkout(s.cohorts.allIDs(), false, false))
		// Read-only leases release without I/O, so the error is always nil.
		defer func() { _ = s.cohorts.release(phaseLeases) }()
	}
	s.gen.SetTraining(true)

	gradNormSum, gradNormCount := 0.0, 0

	for it := 0; it < cfg.DistillIters; it++ {
		// Between iterations every flag toggled below is back in its
		// steady state, so this is the one safe bail-out point.
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("fedzkt: adversarial phase cancelled at iteration %d of round %d: %w", it, round, err)
		}
		iterSpan := tracer().Begin("distill", "distill_iteration").WithRound(round).WithTID(it)
		teachers := phaseLeases
		if t > 0 {
			ids := s.teacherSampler(t).Sample(s.cohorts.numDevices(), teacherRNG)
			teachers = compactLeases(s.cohorts.checkout(ids, false, false))
		}

		// --- Generator step: maximise disagreement (lines 4-7). ---
		// F is a fixed function during the adversary's move: frozen
		// parameters and frozen batch-norm statistics, so the generator
		// optimises a stationary objective and F's running statistics
		// track only the batches F itself trains on. The whole step —
		// noise, activations, backward scratch, the tape — lives in the
		// phase arena and is recycled after the optimiser step.
		nn.SetTrainable(s.global, false)
		s.global.SetTraining(false)
		z := ag.ConstIn(s.phase, s.gen.SampleZIn(s.phase.Tensors(), cfg.DistillBatch, rng))
		x := s.gen.Forward(z)
		if cfg.ProbeGradNorm {
			x.RetainGrad() // read below, after its backward has run
		}
		loss := s.disagreement(x, teachers)
		lg := ag.Scale(-1, loss)
		s.genOpt.ZeroGrad()
		ag.Backward(lg)
		if cfg.ProbeGradNorm && x.Grad() != nil {
			// ‖∇ₓL‖ per sample; LG = −L so the norm is identical.
			gradNormSum += tensor.Norm2(x.Grad()) / float64(cfg.DistillBatch)
			gradNormCount++
		}
		s.genOpt.Step()
		s.resetStep()
		nn.SetTrainable(s.global, true)
		s.global.SetTraining(true)

		// --- Global model step(s): minimise disagreement (lines 9-12),
		// against the same teacher subset as this iteration's generator
		// step. ---
		nn.SetTrainable(s.gen, false)
		for st := 0; st < cfg.StudentSteps; st++ {
			z = ag.ConstIn(s.phase, s.gen.SampleZIn(s.phase.Tensors(), cfg.DistillBatch, rng))
			x = s.gen.Forward(z)
			loss = s.disagreement(x, teachers)
			s.globalOpt.ZeroGrad()
			ag.Backward(loss)
			s.globalOpt.Step()
			s.resetStep()
		}
		nn.SetTrainable(s.gen, true)

		if t > 0 {
			_ = s.cohorts.release(teachers) // read-only: cannot fail
		}
		s.globalSched.Tick()
		s.genSched.Tick()
		iterSpan.End()
	}
	if gradNormCount == 0 {
		return 0, nil
	}
	return gradNormSum / float64(gradNormCount), nil
}

// disagreement evaluates L(F(x), f_ens(x)) over the resident teacher
// leases, in lease order (ascending device id).
func (s *Server) disagreement(x *ag.Variable, teachers []*replicaLease) *ag.Variable {
	student := s.global.Forward(x)
	return Disagreement(s.cfg.Loss, student, s.teacherOuts(x, teachers))
}

// teacherOuts runs the T frozen teacher forwards of one distillation
// iteration, fanned out across the configured workers. Each worker tapes
// its teachers on its own arena through an ag.MirrorIn of the shared
// batch — a pass-through node whose backward is bit-identical to
// accumulating into x directly — so each teacher lowers its own tiles of
// the batch on its worker's arena. The result slice is index-ordered, the
// loss combines it in that order, and each tape's topology is independent
// of which worker taped it, so the loss and every gradient are
// byte-identical for any worker count (including the inline workers=1
// path).
func (s *Server) teacherOuts(x *ag.Variable, teachers []*replicaLease) []*ag.Variable {
	if cap(s.outScratch) < len(teachers) {
		s.outScratch = make([]*ag.Variable, len(teachers))
	}
	outs := s.outScratch[:len(teachers)]
	s.ensureWorkerArenas(sched.EffectiveWorkers(len(teachers), s.cfg.Workers))
	sched.ForEachWorker(len(teachers), s.cfg.Workers, func(i, w int) {
		outs[i] = teachers[i].slot.module.Forward(ag.MirrorIn(s.workerArenas[w], x))
	})
	return outs
}

// transferBackIDs returns the replica ids iteration it of round round
// distils into in sampled mode: a window of min(t, P) consecutive entries
// of the P > 0 participants (ascending ids), cyclically. Transfer-back
// exists to send the distilled knowledge down, and only participants
// download: a replica of anyone else would be overwritten by that device's
// next upload before it was ever read. The window start advances with the
// absolute iteration index across rounds (not just within one round), so
// when a round's DistillIters × t budget is smaller than P, coverage
// rotates over the participants from round to round.
func (s *Server) transferBackIDs(round, it, t int, participants []int) []int {
	p := len(participants)
	start := (((round-1)*s.cfg.DistillIters + it) * t) % p
	if start < 0 {
		start += p
	}
	ids := make([]int, min(t, p))
	for j := range ids {
		ids[j] = participants[(start+j)%p]
	}
	return ids
}

// transferBackPhase is the second half of Algorithm 3 (lines 15-21):
// distil the updated global model back into the replicas using the
// trained generator and the KL loss of Eq. 8 — every replica in exact
// mode, windows of the participants in sampled mode (transferBackIDs). A
// sampled round that absorbed nothing has no one to send knowledge to and
// skips the phase.
func (s *Server) transferBackPhase(ctx context.Context, round int, participants []int) (err error) {
	cfg := s.cfg
	t := s.teachersPerIter()
	if t > 0 && len(participants) == 0 {
		return nil
	}
	rng := tensor.NewRand(cfg.Seed ^ (uint64(round)<<24 + 0xBAC))

	// G and F are fixed teachers here.
	nn.SetTrainable(s.gen, false)
	nn.SetTrainable(s.global, false)
	s.gen.SetTraining(false)
	s.global.SetTraining(false)
	defer func() {
		nn.SetTrainable(s.gen, true)
		nn.SetTrainable(s.global, true)
		s.gen.SetTraining(true)
		s.global.SetTraining(true)
	}()

	var phaseLeases []*replicaLease
	if t == 0 {
		phaseLeases = compactLeases(s.cohorts.checkout(s.cohorts.allIDs(), true, true))
		defer func() {
			// Writable leases are stored back on release; surface a
			// spill-tier I/O failure unless the phase already failed.
			if rerr := s.cohorts.release(phaseLeases); rerr != nil && err == nil {
				err = rerr
			}
		}()
	}

	for it := 0; it < cfg.DistillIters; it++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fedzkt: transfer-back phase cancelled at iteration %d of round %d: %w", it, round, err)
		}
		// The generated batch and the teacher's distillation targets are
		// shared read-only values, computed once per iteration on the
		// phase arena (reset only after every worker has joined). Their
		// Variable wrappers carry no arena, so each worker's tape draws
		// from the worker's own arena instead.
		x := s.gen.Forward(ag.ConstIn(s.phase, s.gen.SampleZIn(s.phase.Tensors(), cfg.DistillBatch, rng))).Value()
		targets := NewDistillTargetsIn(s.phase.Tensors(),
			ag.SoftmaxRowsIn(s.phase, s.global.Forward(ag.ConstIn(s.phase, x)).Value()))

		batch := phaseLeases
		if t > 0 {
			batch = compactLeases(s.cohorts.checkout(s.transferBackIDs(round, it, t, participants), true, true))
		}

		// One independent distillation step per resident replica, bounded
		// to the configured worker count so a 1,000-device federation does
		// not spawn 1,000 goroutines (inline on the caller at Workers: 1,
		// the reference scheduler). Each worker owns an arena, reset
		// after every replica's step; it also lends the replica's
		// parameter gradients for its one step, as a device task's rig
		// does: a pooled module keeps no gradient buffers between steps,
		// so how many modules transfer-back ever trained costs no heap.
		s.ensureWorkerArenas(sched.EffectiveWorkers(len(batch), cfg.Workers))
		sched.ForEachWorker(len(batch), cfg.Workers, func(i, w int) {
			wa := s.workerArenas[w]
			l := batch[i]
			params := l.slot.module.Params()
			ag.LendGrads(params, wa.T)
			loss := targets.Loss(l.slot.module.Forward(ag.ConstIn(wa, x)))
			l.slot.opt.ZeroGrad()
			ag.Backward(loss)
			l.slot.opt.Step()
			ag.DetachGrads(params)
			wa.Reset()
		})

		if t > 0 {
			if err := s.cohorts.release(batch); err != nil {
				return err
			}
		}
		s.phase.Reset()
	}
	return nil
}

// EvaluateGlobal reports F's test accuracy on ds, stepping at
// DistillBatch on the phase arena, the batch that arena distils at.
func (s *Server) EvaluateGlobal(ds *data.Dataset) float64 {
	return fed.EvaluateArena(s.global, ds, s.cfg.DistillBatch, s.phase)
}

// EvaluateReplicaSubset reports the test accuracy of the given devices'
// server-side replica states, in ids order (the scale regime evaluates a
// deterministic subset instead of a million replicas). The pipelined round
// engine evaluates replicas instead of the live device models, which may
// already be training a later round: the replica after round r's
// transfer-back is exactly what round r's download delivers, so for every
// device that completed the round this matches the synchronous engine's
// post-download device accuracy (stragglers are evaluated at their
// distilled replica rather than their stale local model).
//
// Replicas are checked out into pooled live modules in bounded chunks of
// workers (0 = GOMAXPROCS) and evaluated concurrently within a chunk, so
// the cohort pools never grow beyond the chunk size on account of
// evaluation. Accuracy depends only on the stored states, so the result
// is identical for any worker count, and for any batchSize; the engine
// passes DistillBatch, the batch the worker arenas distil at. A member
// whose replica fails to load reports zero accuracy (and a recorded
// fault).
func (s *Server) EvaluateReplicaSubset(ds *data.Dataset, batchSize, workers int, ids []int) []float64 {
	n := len(ids)
	accs := make([]float64, n)
	chunk := workers
	if chunk <= 0 {
		chunk = runtime.GOMAXPROCS(0)
	}
	s.ensureWorkerArenas(sched.EffectiveWorkers(chunk, workers))
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		leases := s.cohorts.checkout(ids[lo:hi], false, false)
		sched.ForEachWorker(hi-lo, workers, func(i, w int) {
			if leases[i] == nil {
				return // faulted member: dropped from this eval
			}
			accs[lo+i] = fed.EvaluateArena(leases[i].slot.module, ds, batchSize, s.workerArenas[w])
		})
		_ = s.cohorts.release(leases) // read-only: cannot fail
	}
	return accs
}
