package fedzkt

// State at rest: the slot store behind the cohort registry (cohort.go)
// and the in-process device store (coordinator.go).
//
// Whatever crosses a seam of this system — an upload, a download, a spill
// record, a checkpointed replica — is one thing, a model's state as codec
// container bytes, and that is also how a state rests between uses. A
// slotStore keeps one container per slot, keyed by a small integer, in an
// LRU hot set: a checkout decodes a slot into a pooled module and a
// writable release re-encodes the module into it (a read-only one writes
// nothing); drop discards a slot's entry, recycling its buffer, and
// forgets its spill record. Each cohort (cohortSet.cohortFor) and device
// architecture (Coordinator.newDevStore) gets one store, set along two
// axes:
//
//   - bound: none — every slot that holds a state stays hot and no file is
//     ever opened — or a hot-set size over a fixed-stride spill file
//     (codec.SpillFile) that dirty entries are written to on eviction.
//     Config.ReplicaStore picks it for the cohorts and the device stores
//     alike.
//   - codec: exact (float64) or lossy (float16, int8), which decides how a
//     virgin slot is read (below). Devices rest in float64 whatever the
//     run's codec, so a trained state at rest is never quantised.
//
// A slot's buffer is taken at its first write. vacated is where every
// buffer comes from, in every store: the spare list — evicted and dropped
// entries' buffers, LIFO — else a new one of the slot's container length
// (codec.Size of the architecture signature) from the store's slab
// (slab.go), anonymous mappings whose pages the kernel zeroes at first
// touch, so a buffer costs no heap allocation and no RSS beyond the bytes
// written. Registration touches no store. The buffers an unbounded store
// ever takes number the most slots that held a state at once, not the
// slots written over a run. close unmaps the slab — when the last read in
// progress returns — and a finalizer on the slab unmaps a store nobody
// closes; a closed store's reads and writes fail.
//
// A device at rest follows its replica. A download is byte for byte the
// device's server replica as the delivered round left it, so while that
// replica is unchanged the device drops its own slot (drop) and, until it
// trains again, materialises by reading the replica (readInto: a copy into
// the rig's module, no payload buffer in between). The server store's
// beforeWrite hook gives a follower its own copy before anything writes
// its replica — an absorb or a depth-0 task's install, a transfer-back
// checkout (exact mode writes every replica), a checkpoint load — so a
// participant's state exists once, on the server, between rounds. A finished task's trained state is
// written into the device's slot, beside the upload it stages, only when
// it can outlive its round: at PipelineDepth ≥ 1. Otherwise the slot is
// dropped and the task writes the state straight into the device's
// server replica (installDict, through the hook): no payload holds it
// between the task and the barrier, and from its download on the device
// follows that replica. The follow rule
// is the same at every pipeline depth: Deliver(r, id) follows iff no
// server round after r has written replica id yet and device id has
// completed no task in a round after r; otherwise it installs the download
// in the device's slot. At
// depth 0 that is every download; at depth ≥ 1, where the server stage
// races the device tasks, the hook stamps each write with its server
// round, and one coordinator mutex orders the hook, Deliver's
// check-and-follow and a follower's whole readInto, since put rewrites a
// hot entry's buffer in place.
//
// Two properties make the tier invisible to the arithmetic:
//
//   - byte identity: a slot holds exactly the container the configured
//     codec produces, the spill round trip is a verbatim byte copy and the
//     float64 container is bit-exact (pinned by the codec tests), so
//     fingerprints are identical across bounds.
//   - one virgin rule: a slot that was never written (or was dropped) is
//     stored nowhere, in any store. Its content is defined as the encoding
//     of the device's seeded initial state — bit-identical to what eager
//     registration would have stored. Under the exact codec that is the
//     seeded state itself, so a read lends nothing (held = false) and the
//     reader re-seeds its module in place, and appendPayload appends the
//     seeded container to dst, storing nothing. Under a lossy codec it is
//     the quantised seeded state, so a read rebuilds the slot from the
//     registration seed (init). That is what makes million-device
//     registration O(1) per device in both memory and disk, and a resident
//     fleet's RSS follow the slots it writes.
//
// A checkout loads a cold slot itself, on the goroutine that needs it.
// Loading the next teacher draw ahead on a goroutine of its own moved no
// end-to-end metric on fleet1k_spill beyond noise and read more spill
// bytes per round (2.67 MB against 2.43, in 6 of 6 traced pairs): it
// loaded records that were evicted before any checkout read them.
//
// One ownership rule makes a hot set free of garbage: entry bytes are
// lent, never handed over. No method returns an entry's buffer; a reader
// gives slotStore.read a function that decodes or copies, and the entry is
// pinned for exactly as long as that function runs. An evicted or dropped
// entry that nobody has pinned can therefore have no reader, and its
// buffer goes onto the store's spare list to be filled by the next cold
// load, virgin rebuild or install (a pinned one follows when its last
// reader returns), as does a vacated buffer whose load or fill failed.
// Records of one cohort are one length (ensureFile), so a spare always
// fits, and hot + spare is every buffer the store ever took: the most
// slots held at once for an unbounded store, the hot-set bound plus what
// was in flight for a bounded one. The function runs outside the store's
// lock, because a store has readers on more than one
// goroutine: device tasks reading the replicas they follow (at depth ≥ 1
// alongside the server stage's checkouts), and the depth-0 device
// evaluation fan-out, whose workers each read a device's state.

import (
	"errors"
	"fmt"
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
	// ReplicaStoreSpill keeps an LRU hot set per cohort and spills
	// cold members' encoded buffers to a fixed-stride disk file, so
	// resident replica state is bounded by the hot-set size instead of the
	// device count.
	ReplicaStoreSpill = "spill"
)

// storeCounters aggregates slot-store traffic across every cohort of one
// server. All fields are monotonic and safe for concurrent update
// (checkouts and follower reads of distinct slots run concurrently); the
// server's are registered as they are (register), so a scrape reads them
// without touching a store.
type storeCounters struct {
	hits, misses  obs.Counter
	initBuilds    obs.Counter // virgin slots rebuilt from their registration seed
	evictions     obs.Counter
	replicaFaults obs.Counter
	// buffersBuilt and buffersReused count slots becoming hot in a buffer
	// started from nothing vs in one an eviction vacated.
	buffersBuilt, buffersReused obs.Counter
}

// register binds the counters into reg under fedzkt_store_* names.
func (c *storeCounters) register(reg *obs.Registry) {
	reg.RegisterCounter("fedzkt_store_hits_total", "replica-store hot-set hits", &c.hits)
	reg.RegisterCounter("fedzkt_store_misses_total", "replica-store cold loads", &c.misses)
	reg.RegisterCounter("fedzkt_store_evictions_total", "hot-set evictions to the spill tier", &c.evictions)
	registerStoreBuffers(reg, c)
}

// registerStoreBuffers serves the entry-buffer pair summed over stores: the
// server's counters, and with them an in-process fleet's device stores'
// once there is one (registerFleetMetrics) — built stays near the
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
func (c *storeCounters) snapshot(mode string) ReplicaStoreStats {
	return ReplicaStoreStats{
		Mode: mode,
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		InitBuilds: c.initBuilds.Load(), Evictions: c.evictions.Load(),
		BuffersBuilt: c.buffersBuilt.Load(), BuffersReused: c.buffersReused.Load(),
		ReplicaFaults: c.replicaFaults.Load(),
	}
}

// ReplicaStoreStats is a point-in-time snapshot of the server's replica
// store: residency, hot-set effectiveness and spill traffic. The memory
// store keeps every slot that holds a state resident: it never evicts or
// touches a file, and misses only to rebuild a virgin slot under a lossy
// codec.
type ReplicaStoreStats struct {
	// Mode is the store mode in effect ("memory" or "spill").
	Mode string
	// HotEntries and HotBytes describe the currently resident slots across
	// all cohorts (every slot that holds a state, under the
	// memory store).
	HotEntries int
	HotBytes   int64
	// Hits and Misses count checkout lookups served from the hot set vs
	// loaded (from spill or a virgin rebuild).
	Hits, Misses int64
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

// PrefetchOverlap returns 0.
//
// Deprecated: the store has no prefetcher; a checkout loads its own cold
// slots. Kept for callers that still report the share.
func (s ReplicaStoreStats) PrefetchOverlap() float64 { return 0 }

// Sub returns the per-round delta between two snapshots of the same
// store (monotonic counters subtract; residency fields keep s's values).
func (s ReplicaStoreStats) Sub(prev ReplicaStoreStats) ReplicaStoreStats {
	d := s
	d.Hits -= prev.Hits
	d.Misses -= prev.Misses
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

// poisonSpares makes a buffer going onto a spare list be overwritten with
// 0xFF first when the binary is a test, so a borrower that outlived its
// entry fails the container magic or a CRC instead of reading plausible
// bytes. Detected from the binary's name, as tensor's arena poison is:
// linking package testing into every program costs set-up time.
var poisonSpares = strings.HasSuffix(strings.TrimSuffix(os.Args[0], ".exe"), ".test")

// hotEntry is one resident member buffer in a cohort's hot set, linked
// into the LRU list (head = most recent). The buffer is owned by the
// entry and lent only to the functions slotStore.read is running on it,
// counted in pins, so no borrower outlives its pin: eviction (or, for a
// pinned entry, the last unpin after it) hands the buffer to the store's
// spare list and the next slot to become hot overwrites it.
type hotEntry struct {
	local      int
	enc        []byte
	pins       int  // reads in progress on enc
	dirty      bool // differs from (or absent in) the spill record
	prev, next *hotEntry
}

// slotStore is one cohort's (or one device architecture's) states at rest,
// keyed by the member's index within it: the hot set, the LRU list, and —
// when bounded — the spill file (created lazily at first eviction).
// Callers validate layouts against the architecture signature first and
// serialise access per slot; distinct slots may be used concurrently. All
// access to the store's own structures is serialised by mu; cold loads run
// under the same lock, so record reads can never race an eviction's write
// of the same slot, and a reader pins its entry (read), so it can never
// race the reuse of an evicted buffer.
type slotStore struct {
	mu       sync.Mutex
	hot      map[int]*hotEntry
	hotBytes int64 // Σ len(e.enc) over hot, kept by insert, put and evictOver
	peak     int   // the most entries hot at once
	head     *hotEntry
	tail     *hotEntry
	file     *codec.SpillFile
	// spare holds the buffers of evicted or dropped, unpinned entries
	// until a slot becoming hot takes one (vacated). Unbounded by design:
	// hot + spare is every buffer the store ever took.
	spare [][]byte

	// codec encodes dicts into slots; payloads in other encodings are
	// converted to it.
	codec codec.Codec
	// capFn returns the live hot-set bound (members keep registering
	// after the store is built, and the auto policy depends on the final
	// cohort size). Nil leaves the set unbounded: nothing is ever evicted
	// and no file is opened.
	capFn func() int
	// bufLen is a slot's container length, what vacated takes from slab
	// when no spare is left.
	bufLen int
	slab   *slab
	// closed is set by close; pinned counts the reads in progress, and
	// the last to return after close unmaps the slab.
	closed bool
	pinned int
	// spillPath names the lazily created spill file.
	spillPath string
	// init appends a virgin member's container, encoded from its
	// registration seed, to dst; nil where nothing reads a virgin slot's
	// payload (the device stores). rebuilds — a lossy codec with an init —
	// makes a read of a virgin slot rebuild it through init; otherwise a
	// virgin slot lends nothing (see the file comment's virgin rule).
	init     func(local int, dst []byte) ([]byte, error)
	rebuilds bool

	counters *storeCounters
}

// newSlotStore makes a store of containers in codec c for the architecture
// of signature sig: unbounded for a nil capFn, else bounded by it over a
// spill file at spillPath.
func newSlotStore(c codec.Codec, sig *archSig, spillPath string, capFn func() int, init func(int, []byte) ([]byte, error), counters *storeCounters) *slotStore {
	return &slotStore{
		hot:       make(map[int]*hotEntry),
		codec:     c,
		capFn:     capFn,
		spillPath: spillPath,
		init:      init,
		rebuilds:  init != nil && !codec.Identity(c),
		counters:  counters,
		bufLen:    codec.Size(c, sig.names, sig.shapes),
		slab:      newSlab(),
	}
}

// lruUnlink removes e from the LRU list.
func (ts *slotStore) lruUnlink(e *hotEntry) {
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
func (ts *slotStore) lruFront(e *hotEntry) {
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
func (ts *slotStore) touch(e *hotEntry) {
	if ts.head == e {
		return
	}
	ts.lruUnlink(e)
	ts.lruFront(e)
}

// insert adds a new entry at the front and evicts past the bound.
// Callers hold mu.
func (ts *slotStore) insert(e *hotEntry) error {
	ts.hot[e.local] = e
	ts.hotBytes += int64(len(e.enc))
	ts.peak = max(ts.peak, len(ts.hot))
	ts.lruFront(e)
	return ts.evictOver()
}

// evictOver evicts least-recent entries until the hot set is within its
// bound, writing dirty buffers to the spill file. Callers hold mu.
func (ts *slotStore) evictOver() error {
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

// recycle puts the buffer of an evicted or dropped entry no reader has
// pinned on the spare list. Callers hold mu.
func (ts *slotStore) recycle(buf []byte) {
	if poisonSpares {
		for i := range buf {
			buf[i] = 0xFF
		}
	}
	ts.spare = append(ts.spare, buf)
}

// vacated returns an emptied buffer for a slot that is becoming hot: a
// spare one, else a new one from the slab. Callers hold mu.
func (ts *slotStore) vacated() []byte {
	n := len(ts.spare)
	if n == 0 {
		ts.counters.buffersBuilt.Add(1)
		return ts.slab.take(ts.bufLen)[:0]
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
func (ts *slotStore) ensureFile(recLen int) error {
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
func (ts *slotStore) spilled(local int) bool {
	return ts.file != nil && ts.file.Written(local)
}

// loadable reports whether a non-resident member has bytes to load: a
// spill record, or a virgin state the store rebuilds. Callers hold mu.
func (ts *slotStore) loadable(local int) bool {
	return ts.rebuilds || ts.spilled(local)
}

// load fetches a loadable member's bytes into a vacated buffer: from the
// spill file when a record exists, else by rebuilding the virgin initial
// state. A failed load gives its buffer back to the spare list. Callers
// hold mu.
func (ts *slotStore) load(local int) (b []byte, err error) {
	buf := ts.vacated()
	if ts.spilled(local) {
		span := tracer().Begin("store", "spill_load")
		b, err = ts.file.Read(local, buf)
		span.End()
	} else {
		ts.counters.initBuilds.Add(1)
		b, err = ts.init(local, buf)
	}
	if err != nil {
		ts.recycle(buf[:cap(buf)])
	}
	return b, err
}

// read makes member local hot and runs fn on its container bytes: fn
// decodes or copies, and must not keep enc — the entry is pinned only while
// fn runs, and its buffer is reused once it has been evicted. A slot holds
// a state if it was written or the store rebuilds its virgin one; where it
// does not, read reports false and fn is not run. A load failure is
// returned for the caller to degrade on (drop the member, record a fault).
func (ts *slotStore) read(local int, fn func(enc []byte) error) (held bool, err error) {
	e, err := ts.pin(local)
	if e == nil {
		return false, err
	}
	err = fn(e.enc)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e.pins--
	ts.pinned--
	switch {
	case ts.closed:
		if ts.pinned == 0 {
			ts.slab.release() // closed while it was being read
		}
	case e.pins == 0 && ts.hot[local] != e:
		ts.recycle(e.enc) // evicted while it was being read
	}
	return true, err
}

// pin makes member local hot and returns its entry with one more read in
// progress, or nil where the slot holds no state.
func (ts *slotStore) pin(local int) (*hotEntry, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.closed {
		return nil, errStoreClosed
	}
	e, ok := ts.hot[local]
	switch {
	case ok:
		ts.counters.hits.Add(1)
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
	ts.pinned++
	return e, nil
}

// put replaces member local's bytes with what fill makes of the member's
// hot buffer, emptied (a vacated one for a non-resident member, given back
// if fill fails), and marks the entry dirty: the spill record, if any, is
// stale until the next eviction.
func (ts *slotStore) put(local int, fill func(buf []byte) ([]byte, error)) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.closed {
		return errStoreClosed
	}
	e, ok := ts.hot[local]
	if !ok {
		e = &hotEntry{local: local, enc: ts.vacated()}
	}
	enc, err := fill(e.enc[:0])
	if err != nil {
		if !ok {
			ts.recycle(e.enc[:cap(e.enc)])
		}
		return err
	}
	if ok {
		ts.hotBytes += int64(len(enc) - len(e.enc))
	}
	e.enc = enc
	e.dirty = true
	if ok {
		ts.touch(e)
		return ts.evictOver()
	}
	return ts.insert(e)
}

// putBytes replaces member local's bytes with a copy of b.
func (ts *slotStore) putBytes(local int, b []byte) error {
	return ts.put(local, func(buf []byte) ([]byte, error) { return append(buf, b...), nil })
}

// installDict replaces slot i's state with sd's values.
func (ts *slotStore) installDict(i int, sd nn.StateDict) error {
	return ts.put(i, func(buf []byte) ([]byte, error) { return ts.codec.Append(buf, sd) })
}

// installPayload adopts a copy of the container bytes — verbatim when the
// payload already uses the store codec's encoding (uploads; same-codec
// checkpoint reloads, bit-exact), re-encoded otherwise (a cross-codec
// checkpoint load), so a slot always honours the configured codec's
// memory bound and nominal-width traffic accounting.
func (ts *slotStore) installPayload(i int, payload []byte) error {
	payload, _, err := codec.Reencode(ts.codec, payload)
	if err != nil {
		return err
	}
	return ts.putBytes(i, payload)
}

// errStoreClosed is what a closed store's reads and writes return: its
// buffers may be unmapped.
var errStoreClosed = errors.New("fedzkt: slot store is closed")

// errNoState is what a caller that registered every slot it asks for
// reports for one that holds no state.
func errNoState(i int) error { return fmt.Errorf("fedzkt: slot %d holds no state", i) }

// appendPayload appends slot i's container, in the store's codec, to dst.
// A virgin slot that lends nothing appends its seeded container, storing
// nothing.
func (ts *slotStore) appendPayload(dst []byte, i int) ([]byte, error) {
	held, err := ts.read(i, func(enc []byte) error {
		dst = append(dst, enc...)
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case held:
		return dst, nil
	case ts.init != nil:
		return ts.init(i, dst)
	}
	return nil, errNoState(i)
}

// checkout makes slot i's state resident in a pooled module, until the
// matching release, and reports whether the slot holds a state: a virgin
// slot the store does not rebuild holds none, and leaves the module as it
// was for the caller to re-seed.
func (ts *slotStore) checkout(i int, into *replicaSlot) (bool, error) {
	return ts.readInto(i, into.sd)
}

// readInto copies slot i's state into sd, a dict of the slot's layout that
// the store does not keep, and reports whether the slot holds a state, as
// checkout does.
func (ts *slotStore) readInto(i int, sd nn.StateDict) (bool, error) {
	return ts.read(i, func(enc []byte) error { return codec.DecodeInto(enc, sd) })
}

// drop discards member local's hot entry, recycling its buffer (once no
// read has it pinned), and forgets its spill record: until it is next
// written the slot holds no state, as a never-written one does, and its
// owner defines what it is (the device store: the device follows its
// replica; the server's, after a checkpoint load: the seeded state).
func (ts *slotStore) drop(local int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.closed {
		return
	}
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
func (ts *slotStore) release(i int, from *replicaSlot, writable bool) error {
	if !writable {
		return nil
	}
	return ts.installDict(i, from.sd)
}

// virgin reports whether member local has neither a hot entry nor a
// spill record: it was never written, or dropped and not written since,
// and its content is the seeded initial state unless its owner says
// otherwise.
func (ts *slotStore) virgin(local int) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	_, ok := ts.hot[local]
	return !ok && !ts.spilled(local)
}

// addStats adds the store's hot entries and bytes — the slots that hold a
// state — and its spill file's traffic to st, in O(1): scrapes and every
// round's close call it on the lock checkouts need.
func (ts *slotStore) addStats(st *ReplicaStoreStats) {
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

// close releases the spill file (removing it from disk) and the slab's
// mappings — at once, or when the last read in progress returns — and
// makes every later read and write return errStoreClosed.
// Idempotent.
func (ts *slotStore) close() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.closed = true
	if ts.pinned == 0 {
		ts.slab.release()
	}
	if ts.file == nil {
		return nil
	}
	err := ts.file.Close()
	ts.file = nil
	return err
}
