package fedzkt

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/optim"
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
// Slots hold state at rest as codec containers in one slotStore per
// cohort (replicastore.go): every slot that holds a state hot on the memory
// store, its buffer taken when the slot is first written;
// an LRU hot set over a spill file on the spill store, where resident
// replica state is bounded by the hot-set size instead of the device
// count, the million-device lever. Members that were never written are
// stored nowhere in either. The bound is chosen once per cohort, in
// cohortFor; nothing else in this file knows which one it talks to.

// member is one registered device inside a cohort: where its replica
// state rests (slot local of the cohort's store).
type member struct {
	id    int
	local int // index within its cohort (the slot key)
}

// replicaSlot is one pooled live module of a cohort, with the captured
// state view and optimiser that serve whichever member is resident — or a
// device rig's module (rig.go), which has no optimiser.
type replicaSlot struct {
	module nn.Module
	sd     nn.StateDict // the module's own state, the codec decode target
	opt    *optim.SGD
}

// archSig is an architecture's state signature, captured once per
// architecture from a single throwaway build: sorted names, per-tensor
// element counts and shapes, and the total. Every install validates the
// incoming dict or payload against it before a slot store sees it, and the
// lazy registration path uses it instead of building a module per device.
type archSig struct {
	names  []string
	lens   []int
	shapes [][]int // containers carry shapes, so codec.Size needs them
	numel  int
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
		sig.shapes = append(sig.shapes, sd[e.Name].Shape())
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

// cohort groups every device of one architecture.
type cohort struct {
	arch    string
	build   func() (nn.Module, error)
	sig     *archSig
	members []*member
	pool    []*replicaSlot
	// slots holds the members' states at rest.
	slots *slotStore
}

// checkPayload validates a container's structure and headers — tensor
// names and element counts, no element work — against the architecture.
func (c *cohort) checkPayload(payload []byte) error {
	entries, err := codec.Layout(payload)
	if err != nil {
		return err
	}
	return c.sig.checkLayout(c.arch, entries)
}

// slot returns the i-th pooled live module, growing the pool on demand and
// counting each module it builds into live. Pool modules carry no
// meaningful values of their own — a checkout always makes a member's
// state resident before use — so their build RNG is arbitrary.
func (c *cohort) slot(i int, lr float64, live *atomic.Int64) *replicaSlot {
	for len(c.pool) <= i {
		m, err := c.build()
		if err != nil {
			// The first build of this architecture succeeded at
			// registration, so a later identical build cannot fail.
			panic(fmt.Sprintf("fedzkt: rebuilding %q replica: %v", c.arch, err))
		}
		c.pool = append(c.pool, &replicaSlot{
			module: m,
			sd:     nn.CaptureState(m),
			opt:    optim.NewSGD(m.Params(), lr, 0, 0),
		})
		live.Add(1)
	}
	return c.pool[i]
}

// deviceRef locates a device's cohort and member record by id.
type deviceRef struct {
	cohort *cohort
	member *member
}

// replicaLease is a checked-out replica: a pooled live module currently
// holding the member's state, until release returns it. writable records
// whether the phase may mutate the module: only a writable lease's state
// is stored back (see slotStore.release).
type replicaLease struct {
	member   *member
	slot     *replicaSlot
	writable bool
}

// cohortOptions parameterises the registry.
type cohortOptions struct {
	lr float64
	// teachers is the sampled teacher count (Config.TeachersPerIter; 0 =
	// exact full-ensemble mode). It bounds how many pooled live modules
	// each cohort keeps after a release — sampled mode never needs more
	// resident at once, exact mode keeps the full cohort pooled so no
	// round rebuilds a module — and drives the auto hot-set bound.
	// Checkouts may grow pools past it transiently when an iteration needs
	// more members resident at once.
	teachers int
	// codec is the slot and payload encoding.
	codec codec.Codec
	// spillDir, when set, selects the spill store and hosts its files;
	// empty keeps every slot in memory. Under the spill store hotSet bounds
	// each cohort's hot entries (0 = auto: the full cohort in exact mode,
	// a teacher-window multiple in sampled mode).
	spillDir string
	hotSet   int
	// initSlot rebuilds a device's seeded initial state — the content of a
	// virgin slot — encoded with codec and appended to dst, and reseed
	// re-draws it in place into a pooled module: how a virgin slot is read
	// where the store lends no state (under the exact codec).
	initSlot func(arch string, id int, dst []byte) ([]byte, error)
	reseed   func(m nn.Module, id int) error
}

// cohortSet is the server's replica registry: one cohort per
// architecture, indexed by architecture and by device id.
type cohortSet struct {
	cohortOptions
	byArch   map[string]*cohort
	cohorts  []*cohort
	devices  []deviceRef
	sigs     map[string]*archSig
	counters storeCounters
	// live counts the pooled modules of every cohort, moved wherever a pool
	// grows or is trimmed, so liveModules never reads a pool.
	live atomic.Int64
	// expected is the number of members reserve expects per architecture,
	// the capacity its cohort's member list is made with.
	expected map[string]int

	// beforeWrite, when set, runs before anything writes device id's slot —
	// an install, or a writable checkout, whose module then trains on the
	// slot's own state — so whoever reads the replica as something else's
	// state can copy it first (Coordinator.unfollow, which also stamps the
	// write with the server stage's round). It runs on the goroutine doing
	// the write; an error fails the write.
	beforeWrite func(id int) error

	// faults collects device ids dropped from a phase because their slot
	// bytes failed to load or decode; drained per round into
	// RoundMetrics.ReplicaFaults.
	faultMu sync.Mutex
	faults  []int

	// closed is set by close; register refuses from then on. Callers
	// order the two.
	closed    bool
	closeOnce sync.Once
	closeErr  error
}

func newCohortSet(o cohortOptions) *cohortSet {
	return &cohortSet{cohortOptions: o, byArch: make(map[string]*cohort), sigs: make(map[string]*archSig)}
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

// cohortFor returns the cohort for arch, creating it on first
// registration — and with it the one decision about how its members'
// states rest: in a hot set bounded over a spill file (the spill store),
// or all hot (the memory store).
func (cs *cohortSet) cohortFor(arch string, sig *archSig, build func() (nn.Module, error)) *cohort {
	if c, ok := cs.byArch[arch]; ok {
		return c
	}
	c := &cohort{arch: arch, build: build, sig: sig, members: make([]*member, 0, cs.expected[arch])}
	init := func(local int, dst []byte) ([]byte, error) {
		return cs.initSlot(c.arch, c.members[local].id, dst)
	}
	var path string
	var capFn func() int // nil: unbounded
	if cs.spillDir != "" {
		path = filepath.Join(cs.spillDir, "replica-"+arch+".spill")
		capFn = func() int { return cs.hotCap(c) }
	}
	c.slots = newSlotStore(cs.codec, sig, path, capFn, init, &cs.counters)
	cs.byArch[arch] = c
	cs.cohorts = append(cs.cohorts, c)
	return c
}

// hotCap is the live hot-set bound of one cohort, one per architecture:
// the configured per-cohort bound, or automatically the whole cohort in exact
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

// reserve sizes the registry for n more devices, perArch[arch] of them of
// architecture arch, so registering them grows nothing. The cohort set
// keeps perArch.
func (cs *cohortSet) reserve(n int, perArch map[string]int) {
	cs.devices = slices.Grow(cs.devices, n)
	cs.expected = perArch
}

// register files a new member into its architecture's cohort and stores
// its initial state, if it has one. A nil sd registers a
// virgin member, whose content is its seeded initial state until the slot
// is first written: reads reconstruct the state via initSlot or reseed.
// sd is validated against the architecture's own signature (one throwaway
// build per architecture), never against itself, so a drifted first
// registrant fails as loudly as a later one.
func (cs *cohortSet) register(arch string, sd nn.StateDict, build func() (nn.Module, error)) (int, error) {
	if cs.closed {
		return 0, errStoreClosed
	}
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
	c := cs.cohortFor(arch, sig, build)
	mem := &member{id: id, local: len(c.members)}
	c.members = append(c.members, mem)
	cs.devices = append(cs.devices, deviceRef{cohort: c, member: mem})
	if sd == nil {
		return id, nil
	}
	if err := c.slots.installDict(mem.local, sd); err != nil {
		return 0, fmt.Errorf("fedzkt: storing %q replica slot: %w", arch, err)
	}
	return id, nil
}

// numDevices returns the number of registered devices.
func (cs *cohortSet) numDevices() int { return len(cs.devices) }

// numCohorts returns the number of distinct registered architectures.
func (cs *cohortSet) numCohorts() int { return len(cs.sigs) }

// liveModules returns the total number of pooled live modules currently
// retained across all cohorts (Server.LiveReplicas). Safe to
// call from any goroutine, while a phase checks out and releases.
func (cs *cohortSet) liveModules() int { return int(cs.live.Load()) }

// storeStats snapshots the replica store: the traffic counters plus every
// cohort store's residency and spill-file traffic.
func (cs *cohortSet) storeStats() ReplicaStoreStats {
	mode := ReplicaStoreMemory
	if cs.spillDir != "" {
		mode = ReplicaStoreSpill
	}
	st := cs.counters.snapshot(mode)
	for _, c := range cs.cohorts {
		c.slots.addStats(&st)
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

// virgin reports whether a device's slot has never been written — its
// content is still the seeded registration state.
func (cs *cohortSet) virgin(ref deviceRef) bool {
	return ref.cohort.slots.virgin(ref.member.local)
}

// noteFault records a member whose slot bytes failed to load or decode;
// the member is dropped from the current phase and the id surfaces in
// RoundMetrics.ReplicaFaults.
func (cs *cohortSet) noteFault(id int) {
	cs.counters.replicaFaults.Add(1)
	cs.faultMu.Lock()
	cs.faults = append(cs.faults, id)
	cs.faultMu.Unlock()
}

// takeFaults drains the recorded fault ids, sorted ascending and deduped.
func (cs *cohortSet) takeFaults() []int {
	cs.faultMu.Lock()
	ids := cs.faults
	cs.faults = nil
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

// appendPayload appends a member's slot in wire form — the codec
// container a download or checkpoint carries — to dst.
func (cs *cohortSet) appendPayload(ref deviceRef, dst []byte) ([]byte, error) {
	b, err := ref.cohort.slots.appendPayload(dst, ref.member.local)
	if err != nil {
		return nil, fmt.Errorf("fedzkt: loading device %d slot: %w", ref.member.id, err)
	}
	return b, nil
}

// stateOf returns a dense deep copy of a member's slot, the inspection
// currency: exactly the values a download delivers.
func (cs *cohortSet) stateOf(ref deviceRef) (nn.StateDict, error) {
	b, err := cs.appendPayload(ref, nil)
	if err != nil {
		return nil, err
	}
	return codec.Decode(b)
}

// readInto copies a member's slot into sd, a dict of its architecture's
// layout — exactly the values a download delivers — and reports whether
// the slot holds a state: a virgin one the store does not rebuild holds
// none, and its content is the device's seeded state.
func (cs *cohortSet) readInto(ref deviceRef, sd nn.StateDict) (bool, error) {
	held, err := ref.cohort.slots.readInto(ref.member.local, sd)
	if err != nil {
		return false, fmt.Errorf("fedzkt: loading device %d slot: %w", ref.member.id, err)
	}
	return held, nil
}

// toWrite runs the beforeWrite hook, where there is one, for a member
// about to be written.
func (cs *cohortSet) toWrite(id int) error {
	if cs.beforeWrite == nil {
		return nil
	}
	return cs.beforeWrite(id)
}

// installDict replaces a member's slot contents with src, validating
// names and element counts against the architecture signature.
func (cs *cohortSet) installDict(ref deviceRef, src nn.StateDict) error {
	if err := ref.cohort.sig.checkLayout(ref.cohort.arch, dictLayout(src)); err != nil {
		return err
	}
	if err := cs.toWrite(ref.member.id); err != nil {
		return err
	}
	return ref.cohort.slots.installDict(ref.member.local, src)
}

// installPayload replaces a member's slot contents with an encoded
// container (an uploaded payload or a checkpointed replica), validating
// its layout against the architecture signature.
func (cs *cohortSet) installPayload(ref deviceRef, payload []byte) error {
	if err := ref.cohort.checkPayload(payload); err != nil {
		return err
	}
	if err := cs.toWrite(ref.member.id); err != nil {
		return err
	}
	return ref.cohort.slots.installPayload(ref.member.local, payload)
}

// drop makes a member's slot virgin again (a checkpoint load of a replica
// never written), after the beforeWrite hook if it held a state, so a
// follower copies the state it is about to lose.
func (cs *cohortSet) drop(ref deviceRef) error {
	if cs.virgin(ref) {
		return nil
	}
	if err := cs.toWrite(ref.member.id); err != nil {
		return err
	}
	ref.cohort.slots.drop(ref.member.local)
	return nil
}

// checkout makes the given devices resident: each member's state is
// installed in a pooled live module of its cohort and the module's
// trainability/training flags are set for the requesting phase. The
// returned leases follow the order of ids, which must be distinct.
//
// A writable checkout runs the beforeWrite hook first. A member whose
// stored bytes fail to load or decode — a corrupt spill record, a
// truncated container — or whose hook fails is dropped from the phase
// instead of killing the process: its lease is nil, the fault is recorded
// for RoundMetrics.ReplicaFaults, and its pool slot is reused by the next
// member. Every checkout must be paired with exactly one release.
func (cs *cohortSet) checkout(ids []int, trainable, training bool) []*replicaLease {
	defer tracer().Begin("store", "teacher_checkout").End()
	leases := make([]*replicaLease, len(ids))
	next := make(map[*cohort]int, 4)
	for pos, id := range ids {
		ref, err := cs.ref(id)
		if err != nil {
			panic(err.Error()) // callers pass validated ids
		}
		si := next[ref.cohort]
		slot := ref.cohort.slot(si, cs.lr, &cs.live)
		var held bool
		if trainable {
			err = cs.toWrite(id)
		}
		if err == nil {
			held, err = ref.cohort.slots.checkout(ref.member.local, slot)
		}
		if err == nil && !held {
			// A virgin slot that lent nothing is its seeded state, re-drawn
			// in place in the pooled module.
			if ref.cohort.slots.virgin(ref.member.local) {
				err = cs.reseed(slot.module, id)
			} else {
				err = errNoState(ref.member.local)
			}
		}
		if err != nil {
			cs.noteFault(id)
			continue // the pool slot is reused by the next member
		}
		next[ref.cohort] = si + 1
		nn.SetTrainable(slot.module, trainable)
		slot.module.SetTraining(training)
		leases[pos] = &replicaLease{member: ref.member, slot: slot, writable: trainable}
	}
	return leases
}

// release returns every leased member's (possibly updated) state to its
// slot — a read-only lease leaves the stored state as it was, so read-only
// phases cause no quantisation drift — and trims each touched cohort's
// pool to the retention bound. Nil leases (members dropped by checkout)
// are skipped. The returned error is a store failure on a writable
// release (spill-tier I/O); read-only releases cannot fail.
func (cs *cohortSet) release(leases []*replicaLease) error {
	var firstErr error
	for _, l := range leases {
		if l == nil {
			continue
		}
		c := cs.devices[l.member.id].cohort
		if err := c.slots.release(l.member.local, l.slot, l.writable); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fedzkt: release device %d: %w", l.member.id, err)
		}
		if cs.teachers > 0 && len(c.pool) > cs.teachers {
			// Nil the trimmed entries before truncating: a plain
			// re-slice would keep the dropped modules reachable through
			// the backing array, silently defeating the memory cap. The
			// leases still being released hold their modules themselves.
			clear(c.pool[cs.teachers:])
			cs.live.Add(int64(cs.teachers - len(c.pool)))
			c.pool = c.pool[:cs.teachers]
		}
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

// close releases every store's spill file and mappings. Idempotent.
func (cs *cohortSet) close() error {
	cs.closeOnce.Do(func() {
		cs.closed = true
		for _, c := range cs.cohorts {
			if err := c.slots.close(); err != nil && cs.closeErr == nil {
				cs.closeErr = err
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
