package fedzkt

// A bounded hot set recycles its buffers: what that may never do to a
// reader, and what it buys.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// recycleStore is a hot set of 2 over records of recLen equal bytes, the
// way one cohort's containers are one length: slot i rebuilds as virginByte(i)
// throughout (the store is a lossy codec's, so it rebuilds virgins), and
// want tracks what each slot was last put as.
type recycleStore struct {
	*slotStore
	counters storeCounters
	want     []byte
}

const (
	recycleMembers = 5
	recycleBound   = 2
	recLen         = 48
)

func virginByte(i int) byte { return byte(1 + i) }

func newRecycleStore(t *testing.T) *recycleStore {
	t.Helper()
	if !poisonSpares {
		t.Fatal("a test binary does not poison evicted buffers: use-after-eviction would read plausible bytes")
	}
	cdc, err := codec.Get(codec.Int8)
	if err != nil {
		t.Fatal(err)
	}
	rs := &recycleStore{}
	for i := 0; i < recycleMembers; i++ {
		rs.want = append(rs.want, virginByte(i))
	}
	init := func(i int, dst []byte) ([]byte, error) { return appendRecord(dst, virginByte(i)), nil }
	rs.slotStore = newSlotStore(cdc, sigOf(seededState(1)), filepath.Join(t.TempDir(), "r.spill"), func() int { return recycleBound }, init, &rs.counters)
	rs.bufLen = recLen
	t.Cleanup(func() { _ = rs.close() })
	return rs
}

func appendRecord(dst []byte, v byte) []byte {
	for i := 0; i < recLen; i++ {
		dst = append(dst, v)
	}
	return dst
}

// putVersion writes slot i as a record of v (never 0xFF, the poison).
func (rs *recycleStore) putVersion(t *testing.T, i int, v byte) {
	t.Helper()
	err := rs.put(i, func(buf []byte) ([]byte, error) { return appendRecord(buf, v), nil })
	if err != nil {
		t.Fatal(err)
	}
	rs.want[i] = v
}

// check reads slot i and fails unless it holds what was last put there (or
// its virgin rebuild), whole.
func (rs *recycleStore) check(t *testing.T, step, i int) {
	t.Helper()
	if err := rs.verify(i); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// verify is check's test, safe off the test goroutine.
func (rs *recycleStore) verify(i int) error {
	held, err := rs.read(i, func(enc []byte) error {
		if len(enc) != recLen {
			return fmt.Errorf("slot %d reads %d bytes, want %d", i, len(enc), recLen)
		}
		for _, b := range enc {
			if b != rs.want[i] {
				return fmt.Errorf("slot %d reads byte %#x, want %#x (0xff is an evicted buffer's poison)", i, b, rs.want[i])
			}
		}
		return nil
	})
	if err == nil && !held {
		err = fmt.Errorf("slot %d holds no state", i)
	}
	return err
}

// TestTieredSlotsRecycleBounded: over a random walk of puts and reads on
// a bound-2 store whose evicted buffers are poisoned and reused, every
// read sees the bytes last put (or the virgin rebuild), no two buffers the
// store holds share storage, and the store builds at most the bound plus
// the loads in flight however long it runs.
func TestTieredSlotsRecycleBounded(t *testing.T) {
	rs := newRecycleStore(t)
	// The detector itself: bytes kept past their entry's eviction read as
	// poison, not as the state they were.
	var kept []byte
	if _, err := rs.read(0, func(enc []byte) error { kept = enc; return nil }); err != nil {
		t.Fatal(err)
	}
	rs.check(t, -1, 1)
	rs.check(t, -1, 2) // evicts slot 0
	for _, b := range kept {
		if b != 0xFF {
			t.Fatalf("bytes borrowed past their entry's eviction read %#x, want the 0xff poison", b)
		}
	}
	// …while a read in progress pins its entry: evicted under the reader,
	// the buffer is neither poisoned nor refilled until the reader returns.
	_, err := rs.read(3, func(enc []byte) error {
		rs.check(t, -1, 0)
		rs.check(t, -1, 1)
		rs.check(t, -1, 4) // three loads through a hot set of 2: slot 3 is out
		if _, hot := rs.hot[3]; hot {
			t.Fatal("slot 3 is still hot: the pinned-eviction case did not arise")
		}
		for _, b := range enc {
			if b != virginByte(3) {
				t.Fatalf("an entry evicted while being read shows byte %#x to its reader, want %#x", b, virginByte(3))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRand(5)
	for step := 0; step < 400; step++ {
		i := rng.IntN(recycleMembers)
		switch rng.IntN(3) {
		case 0:
			rs.putVersion(t, i, byte(16+step%200))
		case 1:
			rs.check(t, step, i)
		case 2:
			rs.check(t, step, (i+1)%recycleMembers)
		}
		owners := make(map[*byte]int)
		for _, e := range rs.hot {
			owners[&e.enc[0]]++
		}
		for _, b := range rs.spare {
			owners[&b[:1][0]]++
		}
		if len(owners) != len(rs.hot)+len(rs.spare) {
			t.Fatalf("step %d: %d hot and %d spare buffers share storage (%d distinct)", step, len(rs.hot), len(rs.spare), len(owners))
		}
	}
	for i := 0; i < recycleMembers; i++ {
		rs.check(t, 400, i)
	}
	built, reused, evictions := rs.counters.buffersBuilt.Load(), rs.counters.buffersReused.Load(), rs.counters.evictions.Load()
	t.Logf("%d buffers built, %d reused over %d evictions", built, reused, evictions)
	if built > recycleBound+2 {
		t.Errorf("a hot set of %d built %d buffers, want at most %d", recycleBound, built, recycleBound+2)
	}
	if reused == 0 || built+reused < evictions {
		t.Errorf("%d evictions refilled %d built + %d reused buffers: evicted buffers are not going round", evictions, built, reused)
	}
}

// TestFailedLoadsKeepTheirBuffer: a load or a fill that fails gives the
// buffer it was handed back to the spare list, so repeated loads of a
// corrupt spill record (every read's bit flipped) and repeated failed
// fills of a slot that is not hot build at most one buffer between them,
// and the record reads clean once the corruption stops.
func TestFailedLoadsKeepTheirBuffer(t *testing.T) {
	const attempts = 8
	rs := newRecycleStore(t)
	for i := 0; i <= recycleBound; i++ {
		rs.putVersion(t, i, byte(16+i)) // the last put evicts slot 0 to its record
	}
	if !rs.spilled(0) {
		t.Fatal("slot 0 was not spilled")
	}
	plan, err := chaos.Parse("spill.read.flip=every:1")
	if err != nil {
		t.Fatal(err)
	}
	before := rs.counters.buffersBuilt.Load()
	chaos.Activate(plan)
	t.Cleanup(chaos.Deactivate)
	for i := 0; i < attempts; i++ {
		if _, err := rs.read(0, func([]byte) error { return nil }); !errors.Is(err, codec.ErrSpillChecksum) {
			t.Fatalf("load %d of a flipped record: %v, want %v", i, err, codec.ErrSpillChecksum)
		}
	}
	chaos.Deactivate()
	failed := errors.New("fill failed")
	for i := 0; i < attempts; i++ {
		if err := rs.put(recycleMembers-1, func([]byte) ([]byte, error) { return nil, failed }); !errors.Is(err, failed) {
			t.Fatalf("fill %d: %v, want %v", i, err, failed)
		}
	}
	if built := rs.counters.buffersBuilt.Load() - before; built > 1 {
		t.Errorf("%d failed loads and %d failed fills built %d buffers, want at most 1", attempts, attempts, built)
	}
	if !rs.virgin(recycleMembers - 1) {
		t.Error("a failed fill left its slot holding a state")
	}
	rs.check(t, 0, 0)
}

// TestTieredSlotsReadRace: two goroutines load, evict and thereby
// recycle each other's buffers on a bound-2 store — a second goroutine
// reads slots 3 and 4 while the test goroutine puts and reads slots 0–2 —
// and a read still sees exactly what was last put, and -race sees no write
// to a buffer a reader has pinned. Callers serialise access per slot, so
// the two sides keep to their own slots.
func TestTieredSlotsReadRace(t *testing.T) {
	rs := newRecycleStore(t)
	stop, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			err := rs.verify(3 + i%2)
			if i == 0 {
				close(started)
			}
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	<-started
	rng := tensor.NewRand(11)
	for step := 0; step < 4000; step++ {
		i := rng.IntN(3)
		if rng.IntN(2) == 0 {
			rs.putVersion(t, i, byte(16+step%200))
		} else {
			rs.check(t, step, i)
		}
	}
}

// TestSpillColdCheckoutAllocs is the cold twin of TestCheckoutAllocsCeiling:
// a hot set of 2 cycled over 16 members, half of them written (and so
// spilled) and half virgin. Every checkout of a written member is a spill
// read; a virgin one is, under int8, a rebuild from its registration seed —
// so every checkout misses — and under float64 no load at all: the exact
// codec's virgin slot lends nothing and the pooled module is re-seeded in
// place. Either way a checkout allocates, in steady state, less than one
// container: a load lands in the buffer the previous eviction vacated.
func TestSpillColdCheckoutAllocs(t *testing.T) {
	const members, hotSet, cycles = 16, 2, 8
	for _, tc := range []struct {
		codec              string
		misses, initBuilds int
	}{
		{codec.Float64, cycles * members / 2, 0},
		{codec.Int8, cycles * members, cycles * members / 2},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.TeachersPerIter = 8
			cfg.ReplicaStore = ReplicaStoreSpill
			cfg.HotSet = hotSet
			cfg.SpillDir = t.TempDir()
			cfg.StateCodec = tc.codec
			srv, err := NewServer(cfg, tinyShape(), 4)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for i := 0; i < members; i++ {
				if _, err := srv.Register("mlp", nil); err != nil {
					t.Fatal(err)
				}
			}
			// The even members are written, and so spill; the odd ones stay virgin.
			for i := 0; i < members; i += 2 {
				if err := srv.cohorts.installDict(srv.cohorts.devices[i], seededState(uint64(100+i))); err != nil {
					t.Fatal(err)
				}
			}
			container, err := srv.cohorts.appendPayload(srv.cohorts.devices[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			cycle := func() {
				for i := 0; i < members; i++ {
					l := srv.cohorts.checkout([]int{i}, false, false)
					if l[0] == nil {
						t.Fatalf("cold checkout dropped member %d (faulted: %v)", i, srv.TakeReplicaFaults())
					}
					if err := srv.cohorts.release(l); err != nil {
						t.Fatal(err)
					}
				}
			}
			cycle() // warm the pool, the seed module and the spare list
			before := srv.ReplicaStoreStats()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for c := 0; c < cycles; c++ {
				cycle()
			}
			runtime.ReadMemStats(&m1)
			d := srv.ReplicaStoreStats().Sub(before)
			if d.Hits != 0 || d.Misses != int64(tc.misses) || d.InitBuilds != int64(tc.initBuilds) || d.SpillReads != cycles*members/2 {
				t.Fatalf("%d hits, %d misses, %d virgin rebuilds, %d spill reads over %d checkouts; want 0, %d, %d, %d",
					d.Hits, d.Misses, d.InitBuilds, d.SpillReads, cycles*members, tc.misses, tc.initBuilds, cycles*members/2)
			}
			perCheckout := float64(m1.TotalAlloc-m0.TotalAlloc) / (cycles * members)
			t.Logf("steady-state cold checkout allocates %.0f bytes; a container is %d", perCheckout, len(container))
			if perCheckout >= float64(len(container)) {
				t.Errorf("a cold checkout allocates %.0f bytes, want less than one container (%d)", perCheckout, len(container))
			}
			if d.BuffersBuilt != 0 {
				t.Errorf("%d entry buffers built in steady state, want every load in a vacated one", d.BuffersBuilt)
			}
		})
	}
}

// TestFleetStoreBuffersBounded: over a spilling run at PipelineDepth 1,
// where trained states rest in the device stores until their downloads,
// the server's cohort stores and the device stores together build no more
// entry buffers than their hot-set bounds plus what can be in flight — per
// store one load, and one entry per worker evicted while that worker was
// reading it — however many evictions the run performs; and the registry
// serves the sum.
func TestFleetStoreBuffersBounded(t *testing.T) {
	co := toyFleet(t, 6, func(c *Config) { c.PipelineDepth = 1 })
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, dev := co.Server().ReplicaStoreStats(), co.DeviceStoreStats()
	// Two architectures, so two stores a side, each bounded by HotSet.
	stores := int64(2 * 2)
	bound := stores * int64(co.cfg.HotSet)
	built, reused := srv.BuffersBuilt+dev.BuffersBuilt, srv.BuffersReused+dev.BuffersReused
	t.Logf("%d entry buffers built, %d reused over %d evictions (Σ hot-set bounds %d)", built, reused, srv.Evictions+dev.Evictions, bound)
	if limit := bound + stores*int64(1+co.cfg.Workers); built > limit {
		t.Errorf("the stores built %d entry buffers, want at most Σ bounds + in flight = %d", built, limit)
	}
	if dev.BuffersReused == 0 || srv.BuffersReused == 0 {
		t.Errorf("reused buffers: server %d, device stores %d; want both recycling", srv.BuffersReused, dev.BuffersReused)
	}
	checkScraped(t, map[string]int64{
		"fedzkt_store_buffers_built_total":  built,
		"fedzkt_store_buffers_reused_total": reused,
	})
}
