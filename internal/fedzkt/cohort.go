package fedzkt

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/optim"
	"github.com/fedzkt/fedzkt/internal/sched"
)

// This file implements the server's architecture-cohort replica registry.
//
// The pre-cohort server kept one full live module and one optimiser per
// registered device, so a 1,000-device federation paid ~1,000× model
// memory on the server and the ensemble forward touched 1,000 distinct
// module graphs. Cohorts group devices by architecture: each cohort owns a
// small pool of live modules (grown on demand, bounded by the retention
// cap) and a per-device slot holding that device's replica parameters. A
// device's state becomes resident in a pooled module only while a
// distillation phase needs it, so server memory scales with (distinct
// architectures × pool size) live modules plus the per-device parameter
// data.
//
// The per-device slot has three representations, selected by the state
// codec (Config.StateCodec) and the replica store (Config.ReplicaStore):
//
//   - identity ("float64") in-memory: a dense nn.StateDict, made resident
//     by an O(#tensors) slice-header exchange via nn.StateBinding — no
//     element copy, byte-identical to the pre-codec implementation;
//   - quantised ("float16", "int8") in-memory: a codec-encoded byte
//     buffer, decoded into the pooled module's tensors on checkout and
//     re-encoded on a writable release — 2 or 1 bytes per element
//     instead of 8;
//   - tiered ("spill", any codec): the encoded buffer lives in the
//     cohort's tieredSlots (replicastore.go) — an LRU hot set backed by
//     a fixed-stride spill file — and members that were never written
//     are not stored at all (their content is the seeded registration
//     state, rebuilt on first touch). Resident replica state is bounded
//     by the hot-set size instead of the device count, the million-
//     device lever.
//
// The registry is additionally sharded (Config.ReplicaShards): shard
// s owns every device with id ≡ s (mod N), each shard keeping its own
// cohorts, module pools, hot sets and spill files, and multi-member
// operations fan the shards out on the sched worker helpers. Devices
// register incrementally (the transport learns the federation size only
// as clients arrive), so ownership is interleaved by id rather than by
// contiguous range — a distinction no caller can observe, since every
// slot API is keyed by device id and fingerprints depend only on stored
// values. Cross-process shards over internal/transport (where contiguous
// ranges matter for routing) are a recorded follow-up.

// member is one registered device inside a cohort: its replica parameters
// (at most one of state and enc is in use, per the codec/store mode; both
// nil in tiered mode, where bytes live in the cohort's tieredSlots under
// the member's local index) and its data-size weight for the weighted
// ensemble.
type member struct {
	id     int
	local  int          // index within its cohort (the spill slot key)
	state  nn.StateDict // dense slot (identity codec, in-memory store)
	enc    []byte       // encoded slot (quantised codecs, in-memory store)
	weight int
}

// replicaSlot is one pooled live module of a cohort, with the state
// binding, captured state view and optimiser that serve whichever member
// is resident.
type replicaSlot struct {
	module  nn.Module
	binding *nn.StateBinding
	sd      nn.StateDict // the module's own state, the codec decode target
	opt     *optim.SGD
}

// archSig is an architecture's state signature, captured once per
// architecture from a single throwaway build: sorted names, per-tensor
// element counts and the total. Installs validate incoming dicts and
// payloads against it, taking over the strict-validation role
// nn.StateDict.LoadFrom plays for dense slots, and the lazy registration
// path uses it instead of building a module per device.
type archSig struct {
	names []string
	lens  []int
	numel int
}

// checkLayout validates an install against the signature: exactly the
// registered names, each with its registered element count.
func (sig *archSig) checkLayout(arch string, entries []codec.LayoutEntry) error {
	if len(entries) != len(sig.names) {
		return fmt.Errorf("fedzkt: %q state has %d tensors, want %d", arch, len(entries), len(sig.names))
	}
	for i, e := range entries {
		// Containers store sorted names, matching the captured signature.
		if e.Name != sig.names[i] {
			return fmt.Errorf("fedzkt: %q state tensor %d is %q, want %q", arch, i, e.Name, sig.names[i])
		}
		if e.Numel != sig.lens[i] {
			return fmt.Errorf("fedzkt: %q state %q has %d elements, want %d", arch, e.Name, e.Numel, sig.lens[i])
		}
	}
	return nil
}

// sigOf captures a state dict's signature.
func sigOf(sd nn.StateDict) *archSig {
	sig := &archSig{}
	for _, e := range dictLayout(sd) {
		sig.names = append(sig.names, e.Name)
		sig.lens = append(sig.lens, e.Numel)
		sig.numel += e.Numel
	}
	return sig
}

// dictLayout renders a state dict in the validation currency of
// checkLayout.
func dictLayout(sd nn.StateDict) []codec.LayoutEntry {
	names := sd.Names()
	entries := make([]codec.LayoutEntry, len(names))
	for i, n := range names {
		entries[i] = codec.LayoutEntry{Name: n, Numel: sd[n].Len()}
	}
	return entries
}

// cohort groups every device of one architecture within one shard.
type cohort struct {
	arch    string
	build   func() (nn.Module, error)
	sig     *archSig
	members []*member
	pool    []*replicaSlot
	// slots is the tiered byte store (spill mode only; nil in-memory).
	slots *tieredSlots
}

// slot returns the i-th pooled live module, growing the pool on demand.
// Pool modules carry no meaningful values of their own — a checkout always
// makes a member's state resident before use — so their build RNG is
// arbitrary.
func (c *cohort) slot(i int, lr float64) *replicaSlot {
	for len(c.pool) <= i {
		m, err := c.build()
		if err != nil {
			// The first build of this architecture succeeded at
			// registration, so a later identical build cannot fail.
			panic(fmt.Sprintf("fedzkt: rebuilding %q replica: %v", c.arch, err))
		}
		c.pool = append(c.pool, &replicaSlot{
			module:  m,
			binding: nn.BindState(m),
			sd:      nn.CaptureState(m),
			opt:     optim.NewSGD(m.Params(), lr, 0, 0),
		})
	}
	return c.pool[i]
}

// cohortShard is one shard of the registry: the cohorts of every device
// with id ≡ index (mod shard count).
type cohortShard struct {
	index   int
	byArch  map[string]*cohort
	cohorts []*cohort
}

// deviceRef locates a device's cohort and member record by id.
type deviceRef struct {
	shard  int
	cohort *cohort
	member *member
}

// replicaLease is a checked-out replica: a pooled live module currently
// holding the member's state, until release returns it. writable records
// whether the phase may mutate the module — a quantised release only
// re-encodes writable leases, so read-only phases (teacher forwards,
// evaluation) never pay a requantisation pass nor accumulate
// quantisation drift.
type replicaLease struct {
	member   *member
	slot     *replicaSlot
	writable bool
}

// cohortOptions parameterises the registry.
type cohortOptions struct {
	lr     float64
	retain int
	codec  codec.Codec
	// shards is the cohort-store shard count (≥ 1).
	shards int
	// workers bounds the shard fan-out of multi-member operations.
	workers int
	// tiered selects the spill-backed store; hotSet bounds each cohort
	// shard's hot entries (0 = auto: the full cohort in exact mode, a
	// teacher-window multiple in sampled mode); teachers is the sampled
	// teacher count driving the auto bound; spillDir hosts the spill
	// files.
	tiered   bool
	hotSet   int
	teachers int
	spillDir string
	// initSlot rebuilds a device's seeded initial state, encoded with
	// codec — the content of a virgin tiered slot (required in tiered
	// mode).
	initSlot func(arch string, id int) ([]byte, error)
}

// cohortSet is the server's replica registry: every shard's cohorts,
// indexed by architecture and by device id.
type cohortSet struct {
	shards  []*cohortShard
	devices []deviceRef
	sigs    map[string]*archSig
	lr      float64
	// retain bounds how many pooled live modules each cohort (per shard)
	// keeps after a release (0 = unbounded). Checkouts may grow pools past
	// the bound transiently when an iteration needs more members resident
	// at once.
	retain int
	// codec is the slot encoding; quantised is false exactly for the
	// identity float64 codec, which keeps the legacy dense-dict slots
	// (in-memory store only — the tiered store always holds containers).
	codec     codec.Codec
	quantised bool

	tiered   bool
	hotSet   int
	teachers int
	spillDir string
	workers  int
	initSlot func(arch string, id int) ([]byte, error)
	counters storeCounters

	// faults collects device ids dropped from a phase because their slot
	// bytes failed to load or decode; drained per round into
	// RoundMetrics.ReplicaFaults.
	faultMu   sync.Mutex
	faults    []int
	faultErrs []string

	// The replica prefetcher: a single goroutine draining batches of
	// device ids and warming their cohort hot sets, started lazily at the
	// first hint.
	prefetchOnce sync.Once
	prefetchCh   chan prefetchBatch
	prefetchWG   sync.WaitGroup
	closeOnce    sync.Once
	closeErr     error
}

func newCohortSet(o cohortOptions) *cohortSet {
	if o.shards < 1 {
		o.shards = 1
	}
	cs := &cohortSet{
		sigs:      make(map[string]*archSig),
		lr:        o.lr,
		retain:    o.retain,
		codec:     o.codec,
		quantised: !codec.Identity(o.codec),
		tiered:    o.tiered,
		hotSet:    o.hotSet,
		teachers:  o.teachers,
		spillDir:  o.spillDir,
		workers:   o.workers,
		initSlot:  o.initSlot,
	}
	for i := 0; i < o.shards; i++ {
		cs.shards = append(cs.shards, &cohortShard{index: i, byArch: make(map[string]*cohort)})
	}
	return cs
}

// ensureSig returns arch's state signature, building one throwaway module
// to capture it on first use.
func (cs *cohortSet) ensureSig(arch string, build func() (nn.Module, error)) (*archSig, error) {
	if sig, ok := cs.sigs[arch]; ok {
		return sig, nil
	}
	m, err := build()
	if err != nil {
		return nil, err
	}
	sig := sigOf(nn.CaptureState(m))
	cs.sigs[arch] = sig
	return sig, nil
}

// cohortFor returns the shard's cohort for arch, creating it (with its
// tiered store, in spill mode) on first registration.
func (cs *cohortSet) cohortFor(sh *cohortShard, arch string, sig *archSig, build func() (nn.Module, error)) *cohort {
	if c, ok := sh.byArch[arch]; ok {
		return c
	}
	c := &cohort{arch: arch, build: build, sig: sig}
	if cs.tiered {
		path := filepath.Join(cs.spillDir, fmt.Sprintf("shard%03d-%s.spill", sh.index, arch))
		capFn := func() int { return cs.hotCap(c) }
		init := func(local int) ([]byte, error) {
			return cs.initSlot(c.arch, c.members[local].id)
		}
		c.slots = newTieredSlots(path, capFn, init, &cs.counters)
	}
	sh.byArch[arch] = c
	sh.cohorts = append(sh.cohorts, c)
	return c
}

// hotCap is the live hot-set bound of one cohort shard: the configured
// per-cohort-shard bound, or automatically the whole cohort in exact
// full-ensemble mode (nothing ever evicts or spills, preserving byte
// parity and speed) and a teacher-window multiple in sampled mode.
func (cs *cohortSet) hotCap(c *cohort) int {
	if cs.hotSet > 0 {
		return cs.hotSet
	}
	if cs.teachers == 0 {
		return len(c.members)
	}
	n := 2 * cs.teachers
	if n < 32 {
		n = 32
	}
	return n
}

// shardOf maps a device id to its owning shard. Ownership is interleaved
// (id mod shards) because devices register incrementally — the total
// federation size is unknown until the last registration.
func (cs *cohortSet) shardOf(id int) *cohortShard { return cs.shards[id%len(cs.shards)] }

// register files a new member into its shard's cohort, storing initial
// state per the active mode. A nil sd registers a virgin member (tiered
// mode only): nothing is stored until the slot is first written, and
// reads reconstruct the seeded initial state via initState. sd is
// validated against the architecture's own signature (one throwaway build
// per architecture), never against itself, so a drifted first registrant
// fails as loudly as a later one. A dense slot keeps a copy of sd unless
// the caller hands it over (owned).
func (cs *cohortSet) register(arch string, sd nn.StateDict, owned bool, weight int, build func() (nn.Module, error)) (int, error) {
	id := len(cs.devices)
	sig, err := cs.ensureSig(arch, build)
	if err != nil {
		return 0, err
	}
	if sd != nil {
		if err := sig.checkLayout(arch, dictLayout(sd)); err != nil {
			return 0, err
		}
	}
	sh := cs.shardOf(id)
	c := cs.cohortFor(sh, arch, sig, build)
	mem := &member{id: id, local: len(c.members), weight: weight}
	c.members = append(c.members, mem)
	cs.devices = append(cs.devices, deviceRef{shard: sh.index, cohort: c, member: mem})
	switch {
	case sd == nil:
		if !cs.tiered {
			return 0, fmt.Errorf("fedzkt: registering device %d without state requires the tiered replica store", id)
		}
		// Virgin: stored nowhere until first written.
	case cs.tiered:
		enc, err := codec.Encode(cs.codec, sd)
		if err != nil {
			return 0, fmt.Errorf("fedzkt: encoding %q replica slot: %w", arch, err)
		}
		if err := c.slots.putBytes(mem.local, enc); err != nil {
			return 0, fmt.Errorf("fedzkt: storing %q replica slot: %w", arch, err)
		}
	case cs.quantised:
		enc, err := codec.Encode(cs.codec, sd)
		if err != nil {
			return 0, fmt.Errorf("fedzkt: encoding %q replica slot: %w", arch, err)
		}
		mem.enc = enc
	default:
		if !owned {
			sd = sd.Clone()
		}
		mem.state = sd
	}
	return id, nil
}

// numDevices returns the number of registered devices.
func (cs *cohortSet) numDevices() int { return len(cs.devices) }

// numCohorts returns the number of distinct registered architectures.
func (cs *cohortSet) numCohorts() int { return len(cs.sigs) }

// numShards returns the cohort-store shard count.
func (cs *cohortSet) numShards() int { return len(cs.shards) }

// liveModules returns the total number of pooled live modules currently
// retained across all shards and cohorts (an observability hook for tests
// and the scale experiment).
func (cs *cohortSet) liveModules() int {
	n := 0
	for _, sh := range cs.shards {
		for _, c := range sh.cohorts {
			n += len(c.pool)
		}
	}
	return n
}

// stateBytes returns the resident size of every member slot: hot-set
// bytes in tiered mode (spilled members cost no memory), encoded buffer
// lengths in quantised mode, dense element bytes in identity mode — the
// per-device memory quantity the quantised codecs shrink and the tiered
// store bounds.
func (cs *cohortSet) stateBytes() int64 {
	var total int64
	if cs.tiered {
		for _, sh := range cs.shards {
			for _, c := range sh.cohorts {
				_, b := c.slots.residency()
				total += b
			}
		}
		return total
	}
	for _, d := range cs.devices {
		if cs.quantised {
			total += int64(len(d.member.enc))
		} else {
			total += int64(d.member.state.Numel()) * 8
		}
	}
	return total
}

// storeStats snapshots the tiered store (zero-valued, mode "memory", for
// an untiered registry).
func (cs *cohortSet) storeStats() ReplicaStoreStats {
	st := ReplicaStoreStats{Mode: ReplicaStoreMemory, Shards: len(cs.shards)}
	st.ReplicaFaults = cs.counters.replicaFaults.Load()
	if !cs.tiered {
		return st
	}
	st.Mode = ReplicaStoreSpill
	st.Hits = cs.counters.hits.Load()
	st.Misses = cs.counters.misses.Load()
	st.PrefetchIssued = cs.counters.prefetchIssued.Load()
	st.PrefetchLoaded = cs.counters.prefetchLoaded.Load()
	st.PrefetchHits = cs.counters.prefetchHits.Load()
	st.InitBuilds = cs.counters.initBuilds.Load()
	st.Evictions = cs.counters.evictions.Load()
	for _, sh := range cs.shards {
		for _, c := range sh.cohorts {
			c.slots.accumulateStats(&st)
		}
	}
	return st
}

// ref validates a device id.
func (cs *cohortSet) ref(id int) (deviceRef, error) {
	if id < 0 || id >= len(cs.devices) {
		return deviceRef{}, fmt.Errorf("fedzkt: unknown device %d", id)
	}
	return cs.devices[id], nil
}

// weights returns every device's data-size weight in id order.
func (cs *cohortSet) weights() []int {
	out := make([]int, len(cs.devices))
	for i, d := range cs.devices {
		out[i] = d.member.weight
	}
	return out
}

// virgin reports whether device id's slot has never been written — its
// content is still the seeded registration state. Always false outside
// the tiered store (in-memory slots are materialised at registration).
func (cs *cohortSet) virgin(ref deviceRef) bool {
	return cs.tiered && ref.cohort.slots.virgin(ref.member.local)
}

// noteFault records a member whose slot bytes failed to load or decode;
// the member is dropped from the current phase and the id surfaces in
// RoundMetrics.ReplicaFaults.
func (cs *cohortSet) noteFault(id int, err error) {
	cs.counters.replicaFaults.Add(1)
	cs.faultMu.Lock()
	cs.faults = append(cs.faults, id)
	if len(cs.faultErrs) < 16 { // keep a bounded sample for diagnostics
		cs.faultErrs = append(cs.faultErrs, err.Error())
	}
	cs.faultMu.Unlock()
}

// takeFaults drains the recorded fault ids, sorted ascending and deduped.
func (cs *cohortSet) takeFaults() []int {
	cs.faultMu.Lock()
	ids := cs.faults
	cs.faults = nil
	cs.faultErrs = nil
	cs.faultMu.Unlock()
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// encOf returns a member's authoritative container bytes in tiered mode,
// owned by the store (copy before retaining).
func (cs *cohortSet) encOf(ref deviceRef) ([]byte, error) {
	return ref.cohort.slots.get(ref.member.local)
}

// stateOf returns a dense deep copy of a member's slot (the download and
// inspection currency): written into dst when given — which must have the
// member's layout — else freshly allocated. Encoded slots decode; identity
// slots copy.
func (cs *cohortSet) stateOf(ref deviceRef, dst nn.StateDict) (nn.StateDict, error) {
	if !cs.tiered && !cs.quantised {
		if dst == nil {
			return ref.member.state.Clone(), nil
		}
		if err := dst.LoadFrom(ref.member.state); err != nil {
			return nil, err
		}
		return dst, nil
	}
	enc := ref.member.enc
	if cs.tiered {
		var err error
		if enc, err = cs.encOf(ref); err != nil {
			return nil, fmt.Errorf("fedzkt: loading device %d slot: %w", ref.member.id, err)
		}
	}
	var err error
	if dst == nil {
		dst, err = codec.Decode(enc)
	} else {
		err = codec.DecodeInto(enc, dst)
	}
	if err != nil {
		return nil, fmt.Errorf("fedzkt: decoding device %d slot: %w", ref.member.id, err)
	}
	return dst, nil
}

// payloadOf returns a member's slot in wire form — the codec container a
// download or checkpoint carries — plus its element count for traffic
// accounting. Encoded slots already hold the container and only pay a
// byte copy; identity in-memory slots encode a dense float64 container.
func (cs *cohortSet) payloadOf(ref deviceRef) ([]byte, int, error) {
	if cs.tiered {
		enc, err := cs.encOf(ref)
		if err != nil {
			return nil, 0, fmt.Errorf("fedzkt: loading device %d slot: %w", ref.member.id, err)
		}
		return append([]byte(nil), enc...), ref.cohort.sig.numel, nil
	}
	if cs.quantised {
		return append([]byte(nil), ref.member.enc...), ref.cohort.sig.numel, nil
	}
	b, err := codec.Encode(cs.codec, ref.member.state)
	if err != nil {
		return nil, 0, fmt.Errorf("fedzkt: encoding device %d state: %w", ref.member.id, err)
	}
	return b, ref.cohort.sig.numel, nil
}

// installDict replaces a member's slot contents with src, validating
// names and element counts against the architecture signature.
func (cs *cohortSet) installDict(ref deviceRef, src nn.StateDict) error {
	if !cs.tiered && !cs.quantised {
		return ref.member.state.LoadFrom(src)
	}
	if err := ref.cohort.sig.checkLayout(ref.cohort.arch, dictLayout(src)); err != nil {
		return err
	}
	if cs.tiered {
		if err := ref.cohort.slots.put(ref.member.local, cs.codec, src); err != nil {
			return fmt.Errorf("fedzkt: storing device %d slot: %w", ref.member.id, err)
		}
		return nil
	}
	enc, err := cs.codec.Append(ref.member.enc[:0], src)
	if err != nil {
		return fmt.Errorf("fedzkt: encoding device %d slot: %w", ref.member.id, err)
	}
	ref.member.enc = enc
	return nil
}

// installPayload replaces a member's slot contents with an encoded
// container (an uploaded payload or a checkpointed replica), validating
// its layout against the architecture signature. Encoded slots adopt a
// copy of the container bytes — verbatim when the payload already uses
// the configured codec's encoding (the common case: in-process and
// transport uploads; bit-exact for same-codec checkpoint reloads), or
// re-encoded when the dtype differs (a cross-codec checkpoint load), so
// the slot always honours the configured codec's memory bound and
// nominal-width traffic accounting. Identity in-memory slots decode into
// their dense dict.
func (cs *cohortSet) installPayload(ref deviceRef, payload []byte) error {
	entries, err := codec.Layout(payload)
	if err != nil {
		return err
	}
	if err := ref.cohort.sig.checkLayout(ref.cohort.arch, entries); err != nil {
		return err
	}
	if cs.tiered || cs.quantised {
		payload, _, err = codec.Reencode(cs.codec, payload)
		if err != nil {
			return err
		}
		if cs.tiered {
			if err := ref.cohort.slots.putBytes(ref.member.local, payload); err != nil {
				return fmt.Errorf("fedzkt: storing device %d slot: %w", ref.member.id, err)
			}
			return nil
		}
		ref.member.enc = append(ref.member.enc[:0], payload...)
		return nil
	}
	return codec.DecodeInto(payload, ref.member.state)
}

// checkout makes the given devices resident: each member's state is
// installed in a pooled live module of its shard's cohort (a slice-header
// swap in identity mode, a codec decode in quantised/tiered mode) and the
// module's trainability/training flags are set for the requesting phase.
// The returned leases follow the order of ids, which must be distinct;
// with more than one shard, shards are checked out concurrently on the
// registry's worker bound (each lease index is written by exactly one
// worker, and per-shard pool assignment is independent of the worker
// count, so results are deterministic).
//
// A member whose stored bytes fail to load or decode — a corrupt spill
// record, a truncated container — is dropped from the phase instead of
// killing the process: its lease is nil, the fault is recorded for
// RoundMetrics.ReplicaFaults, and its pool slot is reused by the next
// member. Every checkout must be paired with exactly one release.
func (cs *cohortSet) checkout(ids []int, trainable, training bool) []*replicaLease {
	defer tracer().Begin("store", "teacher_checkout").End()
	leases := make([]*replicaLease, len(ids))
	if len(cs.shards) == 1 {
		cs.checkoutShard(ids, nil, leases, trainable, training)
		return leases
	}
	byShard := make([][]int, len(cs.shards))
	for pos, id := range ids {
		ref, err := cs.ref(id)
		if err != nil {
			panic(err.Error()) // callers pass validated ids
		}
		byShard[ref.shard] = append(byShard[ref.shard], pos)
	}
	sched.ForEachWorker(len(cs.shards), cs.workers, func(i, _ int) {
		if len(byShard[i]) > 0 {
			cs.checkoutShard(ids, byShard[i], leases, trainable, training)
		}
	})
	return leases
}

// checkoutShard checks out the members at the given positions of ids
// (nil = all positions, the single-shard fast path), writing their leases
// in place. All positions must belong to one shard, so the per-cohort
// pool-slot sequence is deterministic regardless of how shards are
// distributed over workers.
func (cs *cohortSet) checkoutShard(ids []int, positions []int, leases []*replicaLease, trainable, training bool) {
	next := make(map[*cohort]int, 4)
	n := len(ids)
	if positions != nil {
		n = len(positions)
	}
	for k := 0; k < n; k++ {
		pos := k
		if positions != nil {
			pos = positions[k]
		}
		id := ids[pos]
		ref, err := cs.ref(id)
		if err != nil {
			panic(err.Error()) // callers pass validated ids
		}
		si := next[ref.cohort]
		slot := ref.cohort.slot(si, cs.lr)
		switch {
		case cs.tiered:
			enc, err := cs.encOf(ref)
			if err == nil {
				err = codec.DecodeInto(enc, slot.sd)
			}
			if err != nil {
				cs.noteFault(id, err)
				continue // the slot is reused by the next member
			}
		case cs.quantised:
			if err := codec.DecodeInto(ref.member.enc, slot.sd); err != nil {
				cs.noteFault(id, err)
				continue
			}
		default:
			if err := slot.binding.Swap(ref.member.state); err != nil {
				// Absorb and registration validate every state dict against
				// the architecture, so a mismatch here is a programming error.
				panic(fmt.Sprintf("fedzkt: checkout device %d: %v", id, err))
			}
		}
		next[ref.cohort] = si + 1
		nn.SetTrainable(slot.module, trainable)
		slot.module.SetTraining(training)
		leases[pos] = &replicaLease{member: ref.member, slot: slot, writable: trainable}
	}
}

// release returns every leased member's (possibly updated) state to its
// slot — swapping the dict back out in identity mode, re-encoding
// writable leases in quantised/tiered mode (read-only leases are dropped
// unencoded: the slot still holds the authoritative bytes, so read-only
// phases cause no quantisation drift) — and trims each touched cohort's
// pool to the retention bound. Nil leases (members dropped by checkout)
// are skipped. The returned error is a spill-tier I/O failure on a
// writable release; read-only releases cannot fail.
func (cs *cohortSet) release(leases []*replicaLease) error {
	var firstErr error
	for _, l := range leases {
		if l == nil {
			continue
		}
		switch {
		case cs.tiered:
			if !l.writable {
				continue
			}
			ref := cs.devices[l.member.id]
			if err := ref.cohort.slots.put(l.member.local, cs.codec, l.slot.sd); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("fedzkt: release device %d: %w", l.member.id, err)
			}
		case cs.quantised:
			if !l.writable {
				continue
			}
			enc, err := cs.codec.Append(l.member.enc[:0], l.slot.sd)
			if err != nil {
				panic(fmt.Sprintf("fedzkt: release device %d: %v", l.member.id, err))
			}
			l.member.enc = enc
		default:
			if err := l.slot.binding.Swap(l.member.state); err != nil {
				panic(fmt.Sprintf("fedzkt: release device %d: %v", l.member.id, err))
			}
		}
	}
	touched := make(map[*cohort]bool, 4)
	for _, l := range leases {
		if l == nil {
			continue
		}
		c := cs.devices[l.member.id].cohort
		if !touched[c] && cs.retain > 0 && len(c.pool) > cs.retain {
			// Nil the trimmed entries before truncating: a plain
			// re-slice would keep the dropped modules reachable through
			// the backing array, silently defeating the memory cap.
			for i := cs.retain; i < len(c.pool); i++ {
				c.pool[i] = nil
			}
			c.pool = c.pool[:cs.retain]
		}
		touched[c] = true
	}
	return firstErr
}

// compactLeases drops nil holes (members faulted during checkout),
// preserving order. When nothing faulted — the overwhelmingly common
// case — the input slice is returned as is.
func compactLeases(leases []*replicaLease) []*replicaLease {
	for i, l := range leases {
		if l != nil {
			continue
		}
		out := append([]*replicaLease(nil), leases[:i]...)
		for _, l := range leases[i+1:] {
			if l != nil {
				out = append(out, l)
			}
		}
		return out
	}
	return leases
}

// prefetch hints that ids will be checked out soon, warming their cohort
// hot sets on the background prefetcher goroutine. A no-op outside the
// tiered store; hints are dropped (never blocking) when the prefetcher is
// saturated. Prefetch loads only ever insert entries — they never mutate
// a resident buffer — so a hint can race any phase safely, and values
// (hence fingerprints) are identical with prefetching on or off.
func (cs *cohortSet) prefetch(ids []int) {
	if !cs.tiered || len(ids) == 0 {
		return
	}
	cs.prefetchOnce.Do(cs.startPrefetcher)
	batch := append([]int(nil), ids...)
	select {
	case cs.prefetchCh <- prefetchBatch{ids: batch}:
		cs.counters.prefetchIssued.Add(int64(len(batch)))
	default:
	}
}

// prefetchBatch is one unit of prefetcher work: device ids to warm, or —
// when done is non-nil — a quiesce barrier the prefetcher closes once
// every batch enqueued before it has been fully processed.
type prefetchBatch struct {
	ids  []int
	done chan struct{}
}

func (cs *cohortSet) startPrefetcher() {
	cs.prefetchCh = make(chan prefetchBatch, 64)
	cs.prefetchWG.Add(1)
	go func() {
		defer cs.prefetchWG.Done()
		for batch := range cs.prefetchCh {
			for _, id := range batch.ids {
				ref, err := cs.ref(id)
				if err != nil {
					continue
				}
				ref.cohort.slots.prefetchOne(ref.member.local)
			}
			if batch.done != nil {
				close(batch.done)
			}
		}
	}()
}

// quiescePrefetch blocks until every prefetch hint issued before the call
// has been fully processed. Round-boundary accounting snapshots need this:
// a hint drained after the snapshot would add spill reads to the
// cumulative counters that no round's delta ever reports, so per-round
// sums would stop adding up to the totals.
func (cs *cohortSet) quiescePrefetch() {
	if !cs.tiered {
		return
	}
	// Starting the prefetcher (if it never ran) keeps this race-free: the
	// channel exists exactly when the goroutine does, and close() already
	// handles an idle prefetcher uniformly.
	cs.prefetchOnce.Do(cs.startPrefetcher)
	done := make(chan struct{})
	cs.prefetchCh <- prefetchBatch{done: done}
	<-done
}

// close stops the prefetcher and releases every spill file. Idempotent.
func (cs *cohortSet) close() error {
	cs.closeOnce.Do(func() {
		// Starting the prefetcher (if it never ran) makes shutdown
		// uniform: the channel exists exactly when the goroutine does.
		if cs.prefetchCh != nil {
			close(cs.prefetchCh)
			cs.prefetchWG.Wait()
		}
		for _, sh := range cs.shards {
			for _, c := range sh.cohorts {
				if c.slots != nil {
					if err := c.slots.close(); err != nil && cs.closeErr == nil {
						cs.closeErr = err
					}
				}
			}
		}
	})
	return cs.closeErr
}

// allIDs returns every registered device id in ascending order.
func (cs *cohortSet) allIDs() []int {
	ids := make([]int, len(cs.devices))
	for i := range ids {
		ids[i] = i
	}
	return ids
}
