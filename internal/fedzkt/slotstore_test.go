package fedzkt

// The slotStore contract, run bounded and unbounded under an exact and a
// lossy codec, and the memory store's promise never to do spill work.

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

// registryOver builds a registry whose "mlp" cohort rests on
// store, whatever cohortFor would have made. Member i's seeded state is
// seededState(100+i), which the registry re-draws into a pooled module for
// a virgin slot that lends nothing.
func registryOver(t *testing.T, cdc codec.Codec, store *slotStore) *cohortSet {
	t.Helper()
	cs := newCohortSet(cohortOptions{lr: 0.05, codec: cdc, reseed: func(m nn.Module, id int) error {
		return model.Reinit(m, tensor.NewRand(uint64(100+id)))
	}})
	build := func() (nn.Module, error) { return model.Build("mlp", tinyShape(), 4, tensor.NewRand(1)) }
	sig, err := cs.ensureSig("mlp", build)
	if err != nil {
		t.Fatal(err)
	}
	c := &cohort{arch: "mlp", build: build, sig: sig, slots: store}
	cs.byArch["mlp"] = c
	cs.cohorts = append(cs.cohorts, c)
	t.Cleanup(func() { _ = cs.close() })
	return cs
}

// TestSlotStoreContract: what the registry may assume of a slotStore,
// checked for an unbounded store with every slot registered with a state,
// an unbounded one whose last slot is registered without one, and a hot
// set of 2 over a spill file — under float64, whose virgin slots lend
// nothing, and int8, whose virgin slots are rebuilt.
func TestSlotStoreContract(t *testing.T) {
	const members = 5
	sig := sigOf(seededState(1))
	for _, codecName := range []string{codec.Float64, codec.Int8} {
		cdc, err := codec.Get(codecName)
		if err != nil {
			t.Fatal(err)
		}
		var counters storeCounters
		// Member i's seeded registration state: what a store appends for, or
		// rebuilds, a slot it never stored.
		init := func(i int, dst []byte) ([]byte, error) { return cdc.Append(dst, seededState(uint64(100+i))) }
		type backing struct {
			name  string
			store *slotStore
			// virgins: the last member registers without a state.
			virgins bool
		}
		backings := []backing{
			{"containers", newSlotStore(cdc, sig, "", nil, init, &counters), false},
			{"containers-bound2", newSlotStore(cdc, sig, filepath.Join(t.TempDir(), "c.spill"), func() int { return 2 }, init, &counters), true},
			{"first-write", newSlotStore(cdc, sig, "", nil, init, &counters), true},
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
				build := cs.byArch["mlp"].build
				for i := 0; i < members; i++ {
					sd := seededState(uint64(100 + i))
					if b.virgins && i == members-1 {
						sd = nil
					}
					if _, err := cs.register("mlp", sd, build); err != nil {
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
					// A virgin slot checks out as its seeded state, whether
					// the store rebuilds it or lends nothing and the pooled
					// module is re-seeded…
					v := cs.devices[members-1]
					seeded := payload(members - 1)
					leases := cs.checkout([]int{members - 1}, false, false)
					if leases[0] == nil {
						t.Fatal("checkout dropped a virgin member")
					}
					holdsDecoded(t, "a virgin slot's checkout", leases[0].slot.module, seeded)
					if err := cs.release(leases); err != nil {
						t.Fatal(err)
					}
					// …and one that lends nothing stays virgin after a
					// payload read and a read-only release.
					if codec.Identity(cdc) && !cs.virgin(v) {
						t.Fatal("a read wrote a virgin slot")
					}
					if b.name == "first-write" {
						firstWriteContract(t, b.store)
					}
					// Once written a slot is never virgin again, wherever
					// its bytes rest.
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
				holdsDecoded(t, "a checkout", leases[0].slot.module, before)
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
	// virgin rebuilds, cold loads, drops and evictions it equals the
	// walk over the resident entries it replaced, bounded or not.
	cdc, err := codec.Get(codec.Int8)
	if err != nil {
		t.Fatal(err)
	}
	for name, capFn := range map[string]func() int{"unbounded": nil, "bound2": func() int { return 2 }} {
		t.Run("hotbytes/"+name, func(t *testing.T) {
			var counters storeCounters
			init := func(i int, dst []byte) ([]byte, error) { return append(dst, make([]byte, 8+i)...), nil }
			ts := newSlotStore(cdc, sig, filepath.Join(t.TempDir(), "h.spill"), capFn, init, &counters)
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
					ts.drop(i)
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

// holdsDecoded fails unless m's state is exactly the decoding of enc.
func holdsDecoded(t *testing.T, what string, m nn.Module, enc []byte) {
	t.Helper()
	want, err := codec.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := nn.CaptureState(m)
	for name, w := range want {
		if tensor.MaxAbsDiff(got[name], w) != 0 {
			t.Fatalf("%s: module tensor %q differs from the decoded slot", what, name)
		}
	}
}

// firstWriteContract checks, on a fresh unbounded store of like's codec
// and init whose slot i's seeded state is seededState(100+i), what a slot
// registered without a state promises: it holds no buffer, and its first
// write takes one, so the store takes as many as slots it holds and reuses
// a dropped one's; a virgin slot's read lends nothing
// under the exact codec and rebuilds it under a lossy one, and its payload
// is the seeded build's container byte for byte either way, stored nowhere
// under the exact codec; a writable release, installDict and
// installPayload each write a slot; and drop hands its buffer back.
func firstWriteContract(t *testing.T, like *slotStore) {
	t.Helper()
	var counters storeCounters
	ts := newSlotStore(like.codec, sigOf(seededState(1)), "", nil, like.init, &counters)
	defer ts.close()
	lossy := !codec.Identity(ts.codec)
	if len(ts.spare) != 0 || slabBytes(ts) != 0 {
		t.Fatalf("a new store holds %d spare buffers and %d mapped bytes, want none", len(ts.spare), slabBytes(ts))
	}
	encode := func(sd nn.StateDict) []byte {
		t.Helper()
		b, err := codec.Encode(ts.codec, sd)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	m := model.MustBuild("mlp", tinyShape(), 4, tensor.NewRand(1))
	slot := &replicaSlot{module: m, sd: nn.CaptureState(m)}
	if held, err := ts.checkout(0, slot); held != lossy || err != nil {
		t.Fatalf("a virgin slot's checkout reports held=%v, err %v; want held=%v", held, err, lossy)
	}
	if lossy {
		holdsDecoded(t, "a virgin slot's rebuild", m, encode(seededState(100)))
	}
	if err := ts.release(0, slot, false); err != nil {
		t.Fatal(err)
	}
	got, err := ts.appendPayload(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, encode(seededState(103))) {
		t.Fatal("a virgin slot's payload differs from its seeded build's container")
	}
	if !lossy && (len(ts.hot) != 0 || len(ts.spare) != 0 || counters.buffersBuilt.Load() != 0) {
		t.Fatalf("reading virgin slots left %d hot and %d spare, and built %d buffers; want none: an exact store stores no virgin", len(ts.hot), len(ts.spare), counters.buffersBuilt.Load())
	}

	// The caller re-seeds the module, as the registry and materialise do,
	// and a writable release stores what the module holds.
	if err := model.Reinit(m, tensor.NewRand(100)); err != nil {
		t.Fatal(err)
	}
	if err := ts.release(0, slot, true); err != nil {
		t.Fatal(err)
	}
	if err := ts.installDict(1, seededState(7)); err != nil {
		t.Fatal(err)
	}
	if err := ts.installPayload(2, encode(seededState(8))); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, false, false, !lossy} {
		if ts.virgin(i) != want {
			t.Fatalf("slot %d virgin=%v, want %v (0: writable release, 1: installDict, 2: installPayload, 3: read only)", i, ts.virgin(i), want)
		}
	}
	for i, seed := range []uint64{100, 7, 8} {
		if got, err := ts.appendPayload(nil, i); err != nil || !bytes.Equal(got, encode(seededState(seed))) {
			t.Fatalf("slot %d does not hold what was written to it (err %v)", i, err)
		}
	}
	// The next checkout lends the stored state.
	if err := model.Reinit(m, tensor.NewRand(5)); err != nil {
		t.Fatal(err)
	}
	if held, err := ts.checkout(0, slot); !held || err != nil {
		t.Fatalf("a written slot's checkout reports held=%v, err %v", held, err)
	}
	holdsDecoded(t, "a written slot's checkout", m, encode(seededState(100)))

	// drop hands the buffer back, and the next write takes it.
	spare := len(ts.spare)
	if ts.drop(1); len(ts.spare) != spare+1 || !ts.virgin(1) {
		t.Fatalf("drop left %d spare buffers (want %d), virgin=%v", len(ts.spare), spare+1, ts.virgin(1))
	}
	if err := ts.installDict(1, seededState(9)); err != nil {
		t.Fatal(err)
	}
	if built, reused := counters.buffersBuilt.Load(), counters.buffersReused.Load(); built != int64(len(ts.hot)) || reused != 1 {
		t.Fatalf("%d buffers built, %d reused for %d slots held and one rewritten after a drop; want %d built and 1 reused", built, reused, len(ts.hot), len(ts.hot))
	}
}

// TestMemoryStoreBypassesSpill pins at tier 1 what the benchmark's
// memory-store-bypasses-spill check sees only at bench time: a federation
// on the memory store never evicts or touches a file, even with a spill
// directory configured. Under float64 it never misses or rebuilds a slot
// either — a virgin slot lends nothing — while under int8 every miss is a
// virgin slot rebuilt from its seed. Either way the resident slots are the
// ones that hold a state, each one container.
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
			spillWork := fmt.Sprint(st.Evictions, st.SpillReadBytes, st.SpillWriteBytes, st.SpillRecords)
			if spillWork != "0 0 0 0" {
				t.Errorf("evictions, spill bytes read and written, spill records = %s; want all zero", spillWork)
			}
			if exact := codecName == codec.Float64; st.Misses != st.InitBuilds || (st.InitBuilds == 0) != exact {
				t.Errorf("%d misses, %d init builds; want every miss an init build, and init builds only under a lossy codec", st.Misses, st.InitBuilds)
			}
			held, bytesHeld := 0, int64(0)
			for id := range co.Devices() {
				ref := co.Server().cohorts.devices[id]
				if co.Server().cohorts.virgin(ref) {
					continue
				}
				p, _, err := co.Server().ReplicaPayload(id)
				if err != nil {
					t.Fatal(err)
				}
				held++
				bytesHeld += int64(len(p))
			}
			if held == 0 || st.HotEntries != held || st.HotBytes != bytesHeld || st.HotBytes != co.Server().ResidentStateBytes() {
				t.Errorf("%d slots / %d bytes resident (ResidentStateBytes %d), want the %d slots holding a state, %d bytes",
					st.HotEntries, st.HotBytes, co.Server().ResidentStateBytes(), held, bytesHeld)
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
