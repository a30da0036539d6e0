package fedzkt

// State at rest: the slot stores behind the cohort registry (cohort.go)
// and the in-process device store (coordinator.go).
//
// Whatever crosses a seam of this system — an upload, a download, a spill
// record, a checkpointed replica — is one thing, a model's state as codec
// container bytes. slotStore is where such states rest between uses, keyed
// by a small integer, and it has exactly two backings, chosen once per
// cohort (cohortSet.cohortFor) or device architecture
// (Coordinator.newDevStore) from the configuration:
//
//   - denseSlots: a dense nn.StateDict per slot that holds a state, made
//     resident in a pooled module by an O(#tensors) slice-header exchange
//     (nn.StateBinding) — no element copy. Serves the identity codec on the
//     memory store, and resident devices whatever the codec (a download
//     decodes into the slot). Dicts are pooled, not bound to a slot:
//     registration reserves a slot by allocating a dict onto the store's
//     LIFO free stack and writing nothing — fresh heap memory is untouched
//     zero pages, so it costs no resident memory until written — a slot's
//     first write pops one, and drop pushes it back. The stack being LIFO,
//     the dicts ever written number the most slots that held a state at
//     once, not the slots written over a run. A slot without a dict is
//     virgin — not absent, as under a bound — and its content is the
//     seeded registration state: a checkout lends nothing and the caller
//     re-seeds its module, a writable release or an install writes it.
//     Reserving, rather than allocating at the first write, keeps the
//     allocation in set-up: allocating at first write measured
//     fleet1k_sync's alloc_mb_per_round 6.3 → 15.3 against a 0.2 bound.
//     The price is in set-up, and it is not free: Go zeroes the spans a
//     heap that has already freed memory hands out again. Over five
//     fleet1k_sync set-ups after a first one in one process (2 CPUs), 89 %
//     of the CPU was memclrNoHeapPointers under reserve; a first set-up
//     took 0.04 s, the later ones 0.07–0.34 s. Dense is a backing, not a
//     code path: nothing outside this file can tell.
//   - tieredSlots: the container bytes themselves in an LRU hot set, decoded
//     into the pooled module on checkout and re-encoded on a writable
//     release only. Its bound is either none — the whole cohort stays hot
//     and no file is ever opened, which is the quantised codecs on the
//     memory store — or a hot-set size over a fixed-stride spill file
//     (codec.SpillFile) that dirty entries are written to on eviction: the
//     server's spill store and the virtual-device store, which has no
//     virgin hook. drop discards an entry, recycling its buffer, and
//     forgets its spill record.
//
// A device at rest follows its replica. At PipelineDepth 0 a download is
// byte for byte the device's server replica, so the device drops its own
// slot (drop) and, until it trains again, materialises by reading the
// replica (readInto: a copy into the rig's module, no payload buffer in
// between). The server store's beforeWrite hook gives a follower its own
// copy before anything writes its replica — an absorb, a transfer-back
// checkout (exact mode writes every replica), a checkpoint load — so a
// participant's state exists once, on the server, between rounds. At
// depth ≥ 1 the server stage races the device tasks and every download is
// installed in the device's slot.
//
// Three properties make the tier invisible to the arithmetic:
//
//   - byte identity: a slot holds exactly the container the configured
//     codec produces, the spill round trip is a verbatim byte copy and the
//     float64 container is bit-exact (pinned by the codec tests), so
//     fingerprints are identical across backings and bounds.
//   - virgin reconstruction: under a bound, a slot that has never been
//     written is not stored at all, and a dense one is only reserved. Its
//     content is defined as the encoding of the device's seeded initial
//     state, rebuilt on first touch from the registration seed —
//     bit-identical to what eager registration would have stored. That is
//     what makes million-device registration O(1) per device in both
//     memory and disk, and a resident fleet's RSS follow the slots it
//     writes.
//   - perfect prefetch: teacher draws come from a seeded, replayable
//     sampling stream and transfer-back windows are a pure function of
//     (round, iteration, the round's absorbed set), all known before the
//     server phase starts, so the store can load the next iteration's
//     members while the current one computes. Prefetch loads take the
//     same per-cohort lock as checkouts — the overlap won is against
//     distillation compute (which holds no store locks), not against
//     other store traffic — and never touch an existing entry's buffer.
//
// One ownership rule makes a bounded hot set free of garbage: entry bytes
// are lent, never handed over. No method returns an entry's buffer; a
// reader gives tieredSlots.read a function that decodes or copies, and the
// entry is pinned for exactly as long as that function runs. An evicted
// entry that nobody has pinned can therefore have no reader, and its buffer
// goes onto the store's spare list to be filled by the next cold load,
// virgin rebuild or install (a pinned one follows when its last reader
// returns). Records of one cohort are one length (ensureFile), so a spare
// always fits, and hot + spare never exceeds the buffers ever built: the
// hot-set bound plus what was in flight. The function runs outside the
// store's lock — a decode held under it cost the prefetcher 0.005 of
// fedzkt.store_prefetch_overlap on fleet1k_spill, in 10 of 10 pairs.

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// Replica store modes for Config.ReplicaStore.
const (
	// ReplicaStoreMemory keeps every member's slot resident (also the ""
	// default): identical to the pre-tier server.
	ReplicaStoreMemory = "memory"
	// ReplicaStoreSpill keeps an LRU hot set per cohort shard and spills
	// cold members' encoded buffers to a fixed-stride disk file, so
	// resident replica state is bounded by the hot-set size instead of the
	// device count.
	ReplicaStoreSpill = "spill"
)

// storeCounters aggregates tiered-store traffic across every cohort and
// shard of one server. All fields are monotonic and safe for concurrent
// update (the prefetch goroutine races the checkout path by design); the
// server's are registered as they are (register), so a scrape reads them
// without touching a store.
type storeCounters struct {
	hits, misses   obs.Counter
	prefetchIssued obs.Counter // ids handed to the prefetcher
	prefetchLoaded obs.Counter // loads the prefetcher performed
	prefetchHits   obs.Counter // checkout hits served by a prefetched entry
	initBuilds     obs.Counter // virgin slots rebuilt from their registration seed
	evictions      obs.Counter
	replicaFaults  obs.Counter
	// buffersBuilt and buffersReused count slots becoming hot in a buffer
	// started from nothing vs in one an eviction vacated.
	buffersBuilt, buffersReused obs.Counter
}

// register binds the counters into reg under fedzkt_store_* names.
func (c *storeCounters) register(reg *obs.Registry) {
	reg.RegisterCounter("fedzkt_store_hits_total", "replica-store hot-set hits", &c.hits)
	reg.RegisterCounter("fedzkt_store_misses_total", "replica-store cold loads", &c.misses)
	reg.RegisterCounter("fedzkt_store_prefetch_issued_total", "replica prefetches issued", &c.prefetchIssued)
	reg.RegisterCounter("fedzkt_store_prefetch_loaded_total", "replica prefetches loaded before use", &c.prefetchLoaded)
	reg.RegisterCounter("fedzkt_store_evictions_total", "hot-set evictions to the spill tier", &c.evictions)
	registerStoreBuffers(reg, c)
}

// registerStoreBuffers serves the entry-buffer pair summed over stores: the
// server's counters, and with them an in-process fleet's virtual-device
// stores' once there is one (registerFleetMetrics) — built stays near the
// hot-set bounds while reused grows with every cold load.
func registerStoreBuffers(reg *obs.Registry, stores ...*storeCounters) {
	sum := func(of func(*storeCounters) *obs.Counter) func() float64 {
		return func() float64 {
			var n int64
			for _, c := range stores {
				n += of(c).Load()
			}
			return float64(n)
		}
	}
	reg.RegisterCounterFunc("fedzkt_store_buffers_built_total", "hot-set entry buffers allocated (at most the hot-set bounds plus the peak in flight)",
		sum(func(c *storeCounters) *obs.Counter { return &c.buffersBuilt }))
	reg.RegisterCounterFunc("fedzkt_store_buffers_reused_total", "slots made hot in a buffer an eviction vacated",
		sum(func(c *storeCounters) *obs.Counter { return &c.buffersReused }))
}

// snapshot starts a stats snapshot from the counters; the stores add their
// residency and file traffic (slotStore.addStats).
func (c *storeCounters) snapshot(mode string, shards int) ReplicaStoreStats {
	return ReplicaStoreStats{
		Mode: mode, Shards: shards,
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		PrefetchIssued: c.prefetchIssued.Load(), PrefetchLoaded: c.prefetchLoaded.Load(), PrefetchHits: c.prefetchHits.Load(),
		InitBuilds: c.initBuilds.Load(), Evictions: c.evictions.Load(),
		BuffersBuilt: c.buffersBuilt.Load(), BuffersReused: c.buffersReused.Load(),
		ReplicaFaults: c.replicaFaults.Load(),
	}
}

// ReplicaStoreStats is a point-in-time snapshot of the server's replica
// store: residency, hot-set effectiveness, prefetch overlap and spill
// traffic. The memory store keeps every slot resident: it never misses,
// evicts, rebuilds or touches a file.
type ReplicaStoreStats struct {
	// Mode is the store mode in effect ("memory" or "spill").
	Mode string
	// Shards is the number of cohort-store shards.
	Shards int
	// HotEntries and HotBytes describe the currently resident slots across
	// all cohorts and shards (every slot, under the memory store).
	HotEntries int
	HotBytes   int64
	// Hits and Misses count checkout lookups served from the hot set vs
	// loaded (from spill or a virgin rebuild).
	Hits, Misses int64
	// PrefetchIssued, PrefetchLoaded and PrefetchHits describe the
	// prefetcher: ids it was asked to warm, loads it actually performed,
	// and checkout lookups that found an entry it loaded.
	PrefetchIssued, PrefetchLoaded, PrefetchHits int64
	// InitBuilds counts virgin slots materialised from their registration
	// seed (never stored anywhere until first written).
	InitBuilds int64
	// Evictions counts hot-set evictions.
	Evictions int64
	// BuffersBuilt and BuffersReused count slots made hot in a newly
	// allocated buffer vs in one an eviction vacated: built stays near the
	// hot-set bound however many cold loads a run performs.
	BuffersBuilt, BuffersReused int64
	// SpillReads/SpillWrites and SpillReadBytes/SpillWriteBytes count
	// record I/O against the spill files; SpillRecords is how many
	// distinct members currently have a spilled record.
	SpillReads, SpillWrites         int64
	SpillReadBytes, SpillWriteBytes int64
	SpillRecords                    int
	// ReplicaFaults counts members dropped from a phase because their
	// stored bytes failed to load or decode (see RoundMetrics.ReplicaFaults).
	ReplicaFaults int64
}

// HitRate returns hot-set hits over all lookups (1 when idle).
func (s ReplicaStoreStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// PrefetchOverlap returns the fraction of would-be cold lookups the
// prefetcher absorbed: prefetched hits over prefetched hits plus misses
// (0 when nothing was cold).
func (s ReplicaStoreStats) PrefetchOverlap() float64 {
	total := s.PrefetchHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(total)
}

// Sub returns the per-round delta between two snapshots of the same
// store (monotonic counters subtract; residency fields keep s's values).
func (s ReplicaStoreStats) Sub(prev ReplicaStoreStats) ReplicaStoreStats {
	d := s
	d.Hits -= prev.Hits
	d.Misses -= prev.Misses
	d.PrefetchIssued -= prev.PrefetchIssued
	d.PrefetchLoaded -= prev.PrefetchLoaded
	d.PrefetchHits -= prev.PrefetchHits
	d.InitBuilds -= prev.InitBuilds
	d.Evictions -= prev.Evictions
	d.BuffersBuilt -= prev.BuffersBuilt
	d.BuffersReused -= prev.BuffersReused
	d.SpillReads -= prev.SpillReads
	d.SpillWrites -= prev.SpillWrites
	d.SpillReadBytes -= prev.SpillReadBytes
	d.SpillWriteBytes -= prev.SpillWriteBytes
	d.ReplicaFaults -= prev.ReplicaFaults
	return d
}

// slotStore is one cohort's states at rest, keyed by the member's index
// within the cohort. Callers validate layouts against the architecture
// signature first and serialise access per slot; distinct slots may be
// used concurrently.
type slotStore interface {
	// reserve registers slot i without a state: until it is first written,
	// its content is the seeded registration state.
	reserve(i int)
	// installDict replaces slot i's state with sd's values. The store may
	// keep an owned sd itself instead of copying it.
	installDict(i int, sd nn.StateDict, owned bool) error
	// installPayload replaces slot i's state with a container's, converted
	// to the store's codec when its element encoding differs.
	installPayload(i int, payload []byte) error
	// appendPayload appends slot i's container, in the store's codec, to dst.
	appendPayload(dst []byte, i int) ([]byte, error)
	// checkout makes slot i's state resident in a pooled module, until the
	// matching release, and reports whether the slot holds a state: a
	// virgin slot that the store does not rebuild — a reserved dense one,
	// or one of a store without a virgin hook — holds none, and leaves the
	// module as it was for the caller to re-seed. A writable release stores
	// the module's state back, a read-only one leaves the stored bytes
	// untouched (and a virgin slot virgin).
	checkout(i int, into *replicaSlot) (held bool, err error)
	release(i int, from *replicaSlot, writable bool) error
	// readInto copies slot i's state into sd, a dict of the slot's layout
	// that the store does not keep, and reports whether the slot holds a
	// state, as checkout does.
	readInto(i int, sd nn.StateDict) (held bool, err error)
	// drop discards slot i's state: until it is next written the slot
	// holds none, as a reserved one does, and its owner defines what it
	// is (the device store: the device follows its replica).
	drop(i int)
	// virgin reports that slot i holds no state — it was reserved or
	// dropped and not written since, or it is stored nowhere: its content
	// is the seeded registration state unless its owner says otherwise.
	virgin(i int) bool
	// prefetch warms slot i ahead of a checkout, if it is cold.
	prefetch(i int)
	// addStats adds the store's resident entries and bytes, and its spill
	// file's traffic, to st, in O(1): scrapes and every round's close call
	// it on the lock checkouts need.
	addStats(st *ReplicaStoreStats)
	close() error
}

// denseSlots is the slotStore of the identity codec on the memory store
// and of resident devices: a dense float64 dict per slot that holds a
// state, exchanged with the pooled module's own tensors by slice header
// (see the file comment for why it exists). Dicts are pooled, not bound
// to a slot: reserve allocates one onto a LIFO free stack, a slot's first
// write pops one, and drop pushes it back. The stack being LIFO, a pop
// takes a dict some slot has written before whenever there is one, so the
// dicts ever written — the store's RSS — number the most slots that held a
// state at once (heldPeak), however many slots there are.
type denseSlots struct {
	codec codec.Codec // the payload encoding
	sig   *archSig
	// states[i] is slot i's dict, nil while the slot holds no state.
	// Distinct slots are used concurrently, so each entry is only touched
	// by its slot's user.
	states []nn.StateDict
	// mu guards the free stack and the counts: concurrent shard fan-outs
	// write distinct slots of one store.
	mu             sync.Mutex
	free           []nn.StateDict
	held, heldPeak int // dicts popped and not pushed back, now and at most
	// init appends a virgin slot's seeded state, encoded, to dst; nil where
	// nothing reads a virgin slot's payload (the device store).
	init func(local int, dst []byte) ([]byte, error)
}

func (d *denseSlots) reserve(int) {
	d.states = append(d.states, nil)
	d.free = append(d.free, d.sig.alloc())
}

// dict returns slot i's dict, popping one off the free stack for a slot
// that holds no state. The stack is never empty then: reserve and drop
// each push one dict for the one slot they leave without a state.
func (d *denseSlots) dict(i int) nn.StateDict {
	if sd := d.states[i]; sd != nil {
		return sd
	}
	d.mu.Lock()
	n := len(d.free)
	sd := d.free[n-1]
	d.free[n-1] = nil
	d.free = d.free[:n-1]
	d.held++
	d.heldPeak = max(d.heldPeak, d.held)
	d.mu.Unlock()
	d.states[i] = sd
	return sd
}

// write fills slot i's dict; a failed fill of a slot that held no state
// leaves it holding none.
func (d *denseSlots) write(i int, fill func(nn.StateDict) error) error {
	had := d.states[i] != nil
	if err := fill(d.dict(i)); err != nil {
		if !had {
			d.drop(i)
		}
		return err
	}
	return nil
}

func (d *denseSlots) installDict(i int, sd nn.StateDict, owned bool) error {
	if i < len(d.states) {
		return d.write(i, func(dst nn.StateDict) error { return dst.LoadFrom(sd) })
	}
	if !owned {
		sd = sd.Clone()
	}
	d.states = append(d.states, sd)
	return nil
}

func (d *denseSlots) installPayload(i int, payload []byte) error {
	return d.write(i, func(dst nn.StateDict) error { return codec.DecodeInto(payload, dst) })
}

func (d *denseSlots) appendPayload(dst []byte, i int) ([]byte, error) {
	if sd := d.states[i]; sd != nil {
		return d.codec.Append(dst, sd)
	}
	if d.init == nil {
		return nil, errNoState(i)
	}
	return d.init(i, dst)
}

// checkout swaps a written slot's dict into the module. A slot that holds
// no state lends nothing: the caller re-seeds the module in place.
func (d *denseSlots) checkout(i int, into *replicaSlot) (bool, error) {
	if d.states[i] == nil {
		return false, nil
	}
	return true, into.binding.Swap(d.states[i])
}

// release swaps the dict back out, writable or not: the module was
// computing on the slot's own tensors. A slot without a state lent none,
// so a read-only release leaves it so, and a writable one pops a dict and
// swaps all the same: the slot takes the module's tensors and the module
// the popped dict's, which its next checkout overwrites.
func (d *denseSlots) release(i int, from *replicaSlot, writable bool) error {
	if d.states[i] == nil && !writable {
		return nil
	}
	return from.binding.Swap(d.dict(i))
}

func (d *denseSlots) readInto(i int, sd nn.StateDict) (bool, error) {
	if d.states[i] == nil {
		return false, nil
	}
	return true, sd.LoadFrom(d.states[i])
}

// drop pushes slot i's dict back onto the free stack — in a test binary
// NaN-filled first, so a reader that outlived the drop fails a golden.
func (d *denseSlots) drop(i int) {
	sd := d.states[i]
	if sd == nil {
		return
	}
	d.states[i] = nil
	if poisonSpares {
		for _, t := range sd {
			t.Fill(math.NaN())
		}
	}
	d.mu.Lock()
	d.free = append(d.free, sd)
	d.held--
	d.mu.Unlock()
}

func (d *denseSlots) virgin(i int) bool { return d.states[i] == nil }
func (d *denseSlots) prefetch(int)      {}
func (d *denseSlots) close() error      { return nil }

// addStats counts every slot, holding a state or not: each one reserved a
// dict, heap the process holds whether or not its pages were ever touched.
func (d *denseSlots) addStats(st *ReplicaStoreStats) {
	st.HotEntries += len(d.states)
	st.HotBytes += int64(len(d.states)) * int64(d.sig.numel) * 8
}

// poisonSpares makes a buffer going onto a spare list be overwritten with
// 0xFF first when the binary is a test, so a borrower that outlived its
// entry fails the container magic or a CRC instead of reading plausible
// bytes. Detected from the binary's name, as tensor's arena poison is:
// linking package testing into every program costs set-up time.
var poisonSpares = strings.HasSuffix(strings.TrimSuffix(os.Args[0], ".exe"), ".test")

// hotEntry is one resident member buffer in a cohort's hot set, linked
// into the LRU list (head = most recent). The buffer is owned by the
// entry and lent only to the functions tieredSlots.read is running on it,
// counted in pins, so no borrower outlives its pin: eviction (or, for a
// pinned entry, the last unpin after it) hands the buffer to the store's
// spare list and the next slot to become hot overwrites it.
type hotEntry struct {
	local      int
	enc        []byte
	pins       int  // reads in progress on enc
	dirty      bool // differs from (or absent in) the spill record
	prefetched bool // loaded by the prefetcher, not yet hit
	prev, next *hotEntry
}

// tieredSlots is the slotStore of container bytes: the hot set, the LRU
// list, and — when bounded — the spill file (created lazily at first
// eviction) and the virgin-reconstruction hook. All access is serialised
// by mu; the prefetcher performs its loads under the same lock, so record
// reads can never race an eviction's write of the same slot, and a reader
// pins its entry (read), so it can never race the reuse of an evicted
// buffer.
type tieredSlots struct {
	mu       sync.Mutex
	hot      map[int]*hotEntry
	hotBytes int64 // Σ len(e.enc) over hot, kept by insert, put and evictOver
	head     *hotEntry
	tail     *hotEntry
	file     *codec.SpillFile
	// spare holds the buffers of evicted, unpinned entries until a slot
	// becoming hot takes one (vacated). Unbounded by design: hot + spare is
	// every buffer ever built, which is the hot-set bound plus what was in
	// flight.
	spare [][]byte

	// codec encodes dicts into slots; payloads in other encodings are
	// converted to it.
	codec codec.Codec
	// capFn returns the live hot-set bound (members keep registering
	// after the store is built, and the auto policy depends on the final
	// cohort size). Nil leaves the set unbounded: nothing is ever evicted
	// and no file is opened.
	capFn func() int
	// spillPath names the lazily created spill file.
	spillPath string
	// init rebuilds a virgin member's encoded container from its
	// registration seed, appended to dst; nil where a slot that was never
	// written holds no state.
	init func(local int, dst []byte) ([]byte, error)

	counters *storeCounters
}

func newTieredSlots(c codec.Codec, spillPath string, capFn func() int, init func(int, []byte) ([]byte, error), counters *storeCounters) *tieredSlots {
	return &tieredSlots{
		hot:       make(map[int]*hotEntry),
		codec:     c,
		capFn:     capFn,
		spillPath: spillPath,
		init:      init,
		counters:  counters,
	}
}

// lruUnlink removes e from the LRU list.
func (ts *tieredSlots) lruUnlink(e *hotEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		ts.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		ts.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruFront pushes e to the most-recent end.
func (ts *tieredSlots) lruFront(e *hotEntry) {
	e.prev, e.next = nil, ts.head
	if ts.head != nil {
		ts.head.prev = e
	}
	ts.head = e
	if ts.tail == nil {
		ts.tail = e
	}
}

// touch moves an existing entry to the front.
func (ts *tieredSlots) touch(e *hotEntry) {
	if ts.head == e {
		return
	}
	ts.lruUnlink(e)
	ts.lruFront(e)
}

// insert adds a new entry at the front and evicts past the bound.
// Callers hold mu.
func (ts *tieredSlots) insert(e *hotEntry) error {
	ts.hot[e.local] = e
	ts.hotBytes += int64(len(e.enc))
	ts.lruFront(e)
	return ts.evictOver()
}

// evictOver evicts least-recent entries until the hot set is within its
// bound, writing dirty buffers to the spill file. Callers hold mu.
func (ts *tieredSlots) evictOver() error {
	if ts.capFn == nil {
		return nil
	}
	bound := max(ts.capFn(), 1)
	for len(ts.hot) > bound {
		e := ts.tail
		if e == nil {
			break
		}
		if e.dirty {
			span := tracer().Begin("store", "spill_write")
			if err := ts.ensureFile(len(e.enc)); err != nil {
				span.End()
				return err
			}
			err := ts.file.Write(e.local, e.enc)
			span.End()
			if err != nil {
				return err
			}
		}
		ts.lruUnlink(e)
		delete(ts.hot, e.local)
		ts.hotBytes -= int64(len(e.enc))
		ts.counters.evictions.Add(1)
		if e.pins == 0 {
			ts.recycle(e.enc)
		}
	}
	return nil
}

// recycle puts the buffer of an evicted entry no reader has pinned on the
// spare list. Callers hold mu.
func (ts *tieredSlots) recycle(buf []byte) {
	if poisonSpares {
		for i := range buf {
			buf[i] = 0xFF
		}
	}
	ts.spare = append(ts.spare, buf)
}

// vacated returns an evicted entry's buffer, emptied, for a slot that is
// becoming hot, or nil when there is none and the fill will allocate.
// Callers hold mu.
func (ts *tieredSlots) vacated() []byte {
	n := len(ts.spare)
	if n == 0 {
		ts.counters.buffersBuilt.Add(1)
		return nil
	}
	buf := ts.spare[n-1]
	ts.spare[n-1] = nil
	ts.spare = ts.spare[:n-1]
	ts.counters.buffersReused.Add(1)
	return buf[:0]
}

// ensureFile lazily creates the spill file sized to the first evicted
// record. Container sizes are a pure function of (layout, codec), so one
// cohort's records are all the same length; the record capacity adds
// headroom in case a re-encoded install ever differs by a few bytes.
func (ts *tieredSlots) ensureFile(recLen int) error {
	if ts.file != nil {
		return nil
	}
	f, err := codec.CreateSpill(ts.spillPath, recLen+64)
	if err != nil {
		return err
	}
	ts.file = f
	return nil
}

// spilled reports whether member local has a spill record. Callers hold mu.
func (ts *tieredSlots) spilled(local int) bool {
	return ts.file != nil && ts.file.Written(local)
}

// loadable reports whether a non-resident member has bytes to load: a
// spill record, or a virgin state the store can rebuild. Callers hold mu.
func (ts *tieredSlots) loadable(local int) bool {
	return ts.init != nil || ts.spilled(local)
}

// load fetches a loadable member's bytes into a vacated buffer: from the
// spill file when a record exists, else by rebuilding the virgin initial
// state. A failed load loses its buffer to the collector. Callers hold mu.
func (ts *tieredSlots) load(local int) ([]byte, error) {
	if ts.spilled(local) {
		span := tracer().Begin("store", "spill_load")
		b, err := ts.file.Read(local, ts.vacated())
		span.End()
		return b, err
	}
	ts.counters.initBuilds.Add(1)
	return ts.init(local, ts.vacated())
}

// read makes member local hot and runs fn on its container bytes: fn
// decodes or copies, and must not keep enc — the entry is pinned only while
// fn runs, and its buffer is reused once it has been evicted. A slot holds
// a state if it was written or the store can rebuild its virgin one; where
// it does not, read reports false and fn is not run. A load failure is
// returned for the caller to degrade on (drop the member, record a fault).
func (ts *tieredSlots) read(local int, fn func(enc []byte) error) (held bool, err error) {
	e, err := ts.pin(local)
	if e == nil {
		return false, err
	}
	err = fn(e.enc)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if e.pins--; e.pins == 0 && ts.hot[local] != e {
		ts.recycle(e.enc) // evicted while it was being read
	}
	return true, err
}

// pin makes member local hot and returns its entry with one more read in
// progress, or nil where the slot holds no state.
func (ts *tieredSlots) pin(local int) (*hotEntry, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.hot[local]
	switch {
	case ok:
		ts.counters.hits.Add(1)
		if e.prefetched {
			e.prefetched = false
			ts.counters.prefetchHits.Add(1)
		}
		ts.touch(e)
	case !ts.loadable(local):
		return nil, nil
	default:
		ts.counters.misses.Add(1)
		enc, err := ts.load(local)
		if err != nil {
			return nil, err
		}
		e = &hotEntry{local: local, enc: enc}
		if err := ts.insert(e); err != nil {
			return nil, err
		}
	}
	e.pins++
	return e, nil
}

// put replaces member local's bytes with what fill makes of the member's
// hot buffer, emptied (a vacated one for a non-resident member), and marks
// the entry dirty: the spill record, if any, is stale until the next
// eviction.
func (ts *tieredSlots) put(local int, fill func(buf []byte) ([]byte, error)) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.hot[local]
	if !ok {
		e = &hotEntry{local: local, enc: ts.vacated()}
	}
	enc, err := fill(e.enc[:0])
	if err != nil {
		return err
	}
	if ok {
		ts.hotBytes += int64(len(enc) - len(e.enc))
	}
	e.enc = enc
	e.dirty = true
	e.prefetched = false
	if ok {
		ts.touch(e)
		return ts.evictOver()
	}
	return ts.insert(e)
}

// putBytes replaces member local's bytes with a copy of b.
func (ts *tieredSlots) putBytes(local int, b []byte) error {
	return ts.put(local, func(buf []byte) ([]byte, error) { return append(buf, b...), nil })
}

// reserve has nothing to do: a slot that was never written is stored
// nowhere, and a virgin hook, where there is one, rebuilds it.
func (ts *tieredSlots) reserve(int) {}

func (ts *tieredSlots) installDict(i int, sd nn.StateDict, _ bool) error {
	return ts.put(i, func(buf []byte) ([]byte, error) { return ts.codec.Append(buf, sd) })
}

// installPayload adopts a copy of the container bytes — verbatim when the
// payload already uses the store codec's encoding (uploads; same-codec
// checkpoint reloads, bit-exact), re-encoded otherwise (a cross-codec
// checkpoint load), so a slot always honours the configured codec's
// memory bound and nominal-width traffic accounting.
func (ts *tieredSlots) installPayload(i int, payload []byte) error {
	payload, _, err := codec.Reencode(ts.codec, payload)
	if err != nil {
		return err
	}
	return ts.putBytes(i, payload)
}

// errNoState is what a caller that registered every slot it asks for
// reports for one that holds no state.
func errNoState(i int) error { return fmt.Errorf("fedzkt: slot %d holds no state", i) }

func (ts *tieredSlots) appendPayload(dst []byte, i int) ([]byte, error) {
	held, err := ts.read(i, func(enc []byte) error {
		dst = append(dst, enc...)
		return nil
	})
	if err == nil && !held {
		err = errNoState(i)
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

func (ts *tieredSlots) checkout(i int, into *replicaSlot) (bool, error) {
	return ts.readInto(i, into.sd)
}

func (ts *tieredSlots) readInto(i int, sd nn.StateDict) (bool, error) {
	return ts.read(i, func(enc []byte) error { return codec.DecodeInto(enc, sd) })
}

// drop discards member local's hot entry, recycling its buffer (once no
// read has it pinned), and forgets its spill record.
func (ts *tieredSlots) drop(local int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if e, ok := ts.hot[local]; ok {
		ts.lruUnlink(e)
		delete(ts.hot, local)
		ts.hotBytes -= int64(len(e.enc))
		if e.pins == 0 {
			ts.recycle(e.enc)
		}
	}
	if ts.file != nil {
		ts.file.Forget(local)
	}
}

// release re-encodes a writable lease's module state into the slot. A
// read-only lease is dropped: the slot still holds the authoritative
// bytes, so teacher forwards and evaluation pay no requantisation pass and
// accumulate no quantisation drift.
func (ts *tieredSlots) release(i int, from *replicaSlot, writable bool) error {
	if !writable {
		return nil
	}
	return ts.installDict(i, from.sd, false)
}

// prefetch warms member local if it is cold, on the prefetcher's
// goroutine. Load errors are ignored here — the corresponding checkout
// will rediscover them on its own path and degrade there.
func (ts *tieredSlots) prefetch(local int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.hot[local]; ok || !ts.loadable(local) {
		return
	}
	enc, err := ts.load(local)
	if err != nil {
		return
	}
	ts.counters.prefetchLoaded.Add(1)
	_ = ts.insert(&hotEntry{local: local, enc: enc, prefetched: true})
}

// virgin reports whether member local has neither a hot entry nor a
// spill record — its content is still the seeded initial state.
func (ts *tieredSlots) virgin(local int) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	_, ok := ts.hot[local]
	return !ok && !ts.spilled(local)
}

func (ts *tieredSlots) addStats(st *ReplicaStoreStats) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st.HotEntries += len(ts.hot)
	st.HotBytes += ts.hotBytes
	if f := ts.file; f != nil {
		st.SpillReads += f.Reads()
		st.SpillWrites += f.Writes()
		st.SpillReadBytes += f.ReadBytes()
		st.SpillWriteBytes += f.WriteBytes()
		st.SpillRecords += f.Records()
	}
}

// close releases the spill file (removing it from disk).
func (ts *tieredSlots) close() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.file == nil {
		return nil
	}
	err := ts.file.Close()
	ts.file = nil
	return err
}
