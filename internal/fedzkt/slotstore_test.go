package fedzkt

// The slotStore contract, run against both backings and both bounds, and
// the memory store's promise never to do spill work.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// seededState is the state of an "mlp" built from seed.
func seededState(seed uint64) nn.StateDict {
	return nn.CaptureState(model.MustBuild("mlp", tinyShape(), 4, tensor.NewRand(seed)))
}

// registryOver builds a one-shard registry whose "mlp" cohort rests on
// store, whatever cohortFor would have picked.
func registryOver(t *testing.T, cdc codec.Codec, store slotStore) *cohortSet {
	t.Helper()
	cs := newCohortSet(cohortOptions{lr: 0.05, codec: cdc})
	build := func() (nn.Module, error) { return model.Build("mlp", tinyShape(), 4, tensor.NewRand(1)) }
	sig, err := cs.ensureSig("mlp", build)
	if err != nil {
		t.Fatal(err)
	}
	c := &cohort{arch: "mlp", build: build, sig: sig, slots: store}
	cs.shards[0].byArch["mlp"] = c
	cs.shards[0].cohorts = append(cs.shards[0].cohorts, c)
	t.Cleanup(func() { _ = cs.close() })
	return cs
}

// TestSlotStoreContract: what the registry may assume of a slotStore,
// checked for dense dicts, containers with every slot hot, and containers
// in a hot set of 2 over a spill file — under float64 and int8.
func TestSlotStoreContract(t *testing.T) {
	const members = 5
	for _, codecName := range []string{codec.Float64, codec.Int8} {
		cdc, err := codec.Get(codecName)
		if err != nil {
			t.Fatal(err)
		}
		var counters storeCounters
		// Member i's seeded registration state: what a bounded store
		// rebuilds for a slot it never stored.
		init := func(i int, dst []byte) ([]byte, error) { return cdc.Append(dst, seededState(uint64(100+i))) }
		backings := []struct {
			name    string
			store   slotStore
			virgins bool
		}{
			{"containers", newTieredSlots(cdc, "", nil, nil, &counters), false},
			{"containers-bound2", newTieredSlots(cdc, filepath.Join(t.TempDir(), "c.spill"), func() int { return 2 }, init, &counters), true},
		}
		if codec.Identity(cdc) {
			numel := seededState(1).Numel()
			backings = append(backings, struct {
				name    string
				store   slotStore
				virgins bool
			}{"dense", &denseSlots{codec: cdc, numel: numel}, false})
		}
		// payloads[backing][member], compared across backings at the end.
		payloads := make([][][]byte, len(backings))
		for bi, b := range backings {
			t.Run(codecName+"/"+b.name, func(t *testing.T) {
				cs := registryOver(t, cdc, b.store)
				payload := func(id int) []byte {
					t.Helper()
					p, err := cs.appendPayload(cs.devices[id], nil)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				build := cs.shards[0].byArch["mlp"].build
				for i := 0; i < members; i++ {
					// A store that keeps virgin slots registers its last
					// member without state; everyone else stores one.
					sd := seededState(uint64(100 + i))
					if b.virgins && i == members-1 {
						sd = nil
					}
					if _, err := cs.register("mlp", sd, false, 1, build); err != nil {
						t.Fatal(err)
					}
				}

				// Install → payload: the configured codec's container of
				// what was installed, and registration took a copy.
				for i := 0; i < members; i++ {
					want, err := codec.Encode(cdc, seededState(uint64(100+i)))
					if err != nil {
						t.Fatal(err)
					}
					if got := cs.virgin(cs.devices[i]); got != (b.virgins && i == members-1) {
						t.Fatalf("member %d virgin=%v before its first read", i, got)
					}
					if got := payload(i); !bytes.Equal(got, want) {
						t.Fatalf("member %d: payload differs from the encoding of its registered state", i)
					}
				}
				if b.virgins {
					// A virgin slot read as its seeded state; once written
					// it is never virgin again, wherever its bytes rest.
					v := cs.devices[members-1]
					if err := cs.installDict(v, seededState(7)); err != nil {
						t.Fatal(err)
					}
					payload(0)
					payload(1)
					payload(2) // evicts v into the spill file
					if cs.virgin(v) {
						t.Fatal("a written slot is still virgin after eviction")
					}
					if err := cs.installDict(v, seededState(uint64(100+members-1))); err != nil {
						t.Fatal(err)
					}
				}

				// A read-only checkout/release leaves the stored bytes as
				// they were: no requantisation, no drift.
				before := payload(1)
				leases := cs.checkout([]int{1, 3}, false, false)
				if leases[0] == nil || leases[1] == nil {
					t.Fatal("checkout dropped a healthy member")
				}
				got := nn.CaptureState(leases[0].slot.module)
				want, err := codec.Decode(before)
				if err != nil {
					t.Fatal(err)
				}
				for name, w := range want {
					if tensor.MaxAbsDiff(got[name], w) != 0 {
						t.Fatalf("checked-out module tensor %q differs from the decoded slot", name)
					}
				}
				if err := cs.release(leases); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(payload(1), before) {
					t.Fatal("a read-only checkout/release changed the stored bytes")
				}

				// A writable release is what the next payload carries.
				leases = cs.checkout([]int{1}, true, true)
				for _, p := range nn.CaptureState(leases[0].slot.module) {
					for i := range p.Data() {
						p.Data()[i] += 0.25
					}
				}
				moved, err := codec.Encode(cdc, nn.CaptureState(leases[0].slot.module))
				if err != nil {
					t.Fatal(err)
				}
				if err := cs.release(leases); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(payload(1), moved) {
					t.Fatal("a writable release is not what the next payload carries")
				}

				// A truncated container and one of another architecture's
				// layout are refused, the slot unchanged.
				before = payload(2)
				other, err := codec.Encode(cdc, nn.CaptureState(model.MustBuild("lenet-s", tinyShape(), 4, tensor.NewRand(3))))
				if err != nil {
					t.Fatal(err)
				}
				for what, bad := range map[string][]byte{
					"truncated":      before[:len(before)-3],
					"foreign layout": other,
					"empty":          nil,
				} {
					if err := cs.installPayload(cs.devices[2], bad); err == nil {
						t.Fatalf("%s payload installed", what)
					}
					if !bytes.Equal(payload(2), before) {
						t.Fatalf("a refused %s payload changed the slot", what)
					}
				}
				// …and a sound one of another encoding is converted to the
				// store's, so every slot keeps the configured codec's size.
				f16, err := codec.Get(codec.Float16)
				if err != nil {
					t.Fatal(err)
				}
				half, err := codec.Encode(f16, seededState(9))
				if err != nil {
					t.Fatal(err)
				}
				if err := cs.installPayload(cs.devices[2], half); err != nil {
					t.Fatal(err)
				}
				if got := payload(2); len(got) != len(before) {
					t.Fatalf("a float16 payload rests in %d bytes in a %s store, want %d", len(got), codecName, len(before))
				}
				if err := cs.installPayload(cs.devices[2], before); err != nil {
					t.Fatal(err)
				}

				for i := 0; i < members; i++ {
					payloads[bi] = append(payloads[bi], payload(i))
				}
			})
		}
		// The same history leaves byte-identical slots in every backing.
		for bi := 1; bi < len(backings) && !t.Failed(); bi++ {
			for i := range payloads[0] {
				if !bytes.Equal(payloads[bi][i], payloads[0][i]) {
					t.Errorf("%s: member %d rests differently in %s than in %s", codecName, i, backings[bi].name, backings[0].name)
				}
			}
		}
	}

	// HotBytes is a running sum (stats are read on the lock checkouts
	// need): after any sequence of installs, rewrites to another length,
	// cold loads, prefetches and evictions it equals the walk over the
	// resident entries it replaced, bounded or not.
	cdc, err := codec.Get(codec.Float64)
	if err != nil {
		t.Fatal(err)
	}
	for name, capFn := range map[string]func() int{"unbounded": nil, "bound2": func() int { return 2 }} {
		t.Run("hotbytes/"+name, func(t *testing.T) {
			var counters storeCounters
			init := func(i int, dst []byte) ([]byte, error) { return append(dst, make([]byte, 8+i)...), nil }
			ts := newTieredSlots(cdc, filepath.Join(t.TempDir(), "h.spill"), capFn, init, &counters)
			defer ts.close()
			rng := tensor.NewRand(5)
			for step := 0; step < 400; step++ {
				i := rng.IntN(members)
				switch rng.IntN(3) {
				case 0:
					if err := ts.putBytes(i, make([]byte, 1+rng.IntN(64))); err != nil {
						t.Fatal(err)
					}
				case 1:
					if _, err := ts.read(i, func([]byte) error { return nil }); err != nil {
						t.Fatal(err)
					}
				case 2:
					ts.prefetch(i)
				}
				var st ReplicaStoreStats
				ts.addStats(&st)
				var want int64
				for _, e := range ts.hot {
					want += int64(len(e.enc))
				}
				if st.HotBytes != want || st.HotEntries != len(ts.hot) {
					t.Fatalf("step %d: HotBytes %d over %d entries, want %d over %d", step, st.HotBytes, st.HotEntries, want, len(ts.hot))
				}
			}
			if capFn != nil && counters.evictions.Load() == 0 {
				t.Fatal("the bounded sequence never evicted")
			}
		})
	}
}

// TestMemoryStoreBypassesSpill pins at tier 1 what the benchmark's
// memory-store-bypasses-spill check sees only at bench time: a federation
// on the memory store — dense slots under float64, containers under int8 —
// never misses, evicts, rebuilds a slot or touches a file, even with a
// spill directory configured.
func TestMemoryStoreBypassesSpill(t *testing.T) {
	for _, codecName := range []string{codec.Float64, codec.Int8} {
		t.Run(codecName, func(t *testing.T) {
			dir := t.TempDir()
			co := toyFleet(t, 3, func(c *Config) {
				resident(c)
				c.StateCodec, c.SpillDir, c.HotSet = codecName, dir, 2
			})
			if _, err := co.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			st := co.Server().ReplicaStoreStats()
			if st.Mode != ReplicaStoreMemory {
				t.Errorf("store mode %q, want %q", st.Mode, ReplicaStoreMemory)
			}
			spillWork := fmt.Sprint(st.Misses, st.Evictions, st.InitBuilds, st.SpillReadBytes, st.SpillWriteBytes, st.SpillRecords)
			if spillWork != "0 0 0 0 0 0" || st.HitRate() != 1 {
				t.Errorf("misses, evictions, init builds, spill bytes read and written, spill records = %s, hit rate %v; want all zero and 1",
					spillWork, st.HitRate())
			}
			if st.HotEntries != len(co.Devices()) || st.HotBytes != co.Server().ResidentStateBytes() {
				t.Errorf("%d slots / %d bytes resident, want every one of %d devices and ResidentStateBytes = %d",
					st.HotEntries, st.HotBytes, len(co.Devices()), co.Server().ResidentStateBytes())
			}
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 0 {
				t.Errorf("the memory store created %d file(s) under SpillDir, first %q", len(files), files[0].Name())
			}
		})
	}
}
