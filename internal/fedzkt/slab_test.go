package fedzkt

// Slot buffers come from a store's slab at first write: anonymous
// mappings on Linux without -race (slab_mmap.go), the heap otherwise
// (slab_heap.go). The mapping cases are checked through
// fedzkt_store_mapped_bytes and the store's own chunks; under -race the
// same tests run the heap path.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// wantMaps reports whether this build must take buffers from mappings.
func wantMaps() bool { return runtime.GOOS == "linux" && !raceEnabled }

// scrapeMappedBytes reads fedzkt_store_mapped_bytes as a scrape does.
func scrapeMappedBytes(t *testing.T) int64 {
	t.Helper()
	reg := obs.NewRegistry()
	registerMappedBytes(reg)
	var buf bytes.Buffer
	var vars map[string]float64
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	return int64(vars["fedzkt_store_mapped_bytes"])
}

// unboundedStore is an unbounded float64 "mlp" store, as a memory-store
// cohort is.
func unboundedStore(t *testing.T) *slotStore {
	t.Helper()
	cdc, err := codec.Get(codec.Float64)
	if err != nil {
		t.Fatal(err)
	}
	return newSlotStore(cdc, sigOf(seededState(1)), "", nil, nil, new(storeCounters))
}

// takeBuffers takes n buffers for slots becoming hot, as a first write does.
func takeBuffers(ts *slotStore, n int) [][]byte {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = ts.vacated()
	}
	return bufs
}

// slabBytes is what ts's slab has mapped.
func slabBytes(ts *slotStore) int64 {
	var n int64
	for _, c := range ts.slab.chunks {
		n += int64(len(c))
	}
	return n
}

func TestSlotBuffersAreZeroAndExact(t *testing.T) {
	ts := unboundedStore(t)
	defer ts.close()
	if slabBytes(ts) != 0 || len(ts.spare) != 0 {
		t.Fatal("a new store holds buffers before any slot is written")
	}
	// A first write takes its buffer from the slab and fills it in place:
	// the entry is one container, in the buffer taken.
	if err := ts.installDict(0, seededState(100)); err != nil {
		t.Fatal(err)
	}
	if e := ts.hot[0]; len(e.enc) != ts.bufLen || cap(e.enc) != ts.bufLen {
		t.Fatalf("the first write left a %d/%d-byte entry, want %d", len(e.enc), cap(e.enc), ts.bufLen)
	}
	// The buffers taken after it are zero and exact: the write before them
	// did not reach them.
	for i, b := range takeBuffers(ts, 8) {
		if len(b) != 0 || cap(b) != ts.bufLen {
			t.Fatalf("buffer %d: len %d cap %d, want an emptied %d-byte buffer", i, len(b), cap(b), ts.bufLen)
		}
		if bytes.ContainsFunc(b[:cap(b)], func(r rune) bool { return r != 0 }) {
			t.Fatalf("buffer %d is not zero", i)
		}
	}
	if got := slabBytes(ts); wantMaps() != (got >= int64(9*ts.bufLen)) {
		t.Fatalf("the slab mapped %d bytes for 9 buffers of %d (mappings expected: %v)", got, ts.bufLen, wantMaps())
	}
	if wantMaps() && scrapeMappedBytes(t) < slabBytes(ts) {
		t.Fatalf("fedzkt_store_mapped_bytes %d is less than one store's mappings, %d", scrapeMappedBytes(t), slabBytes(ts))
	}
}

func TestSlotBuffersMapLogarithmicChunks(t *testing.T) {
	const n = 100_000
	ts := unboundedStore(t)
	defer ts.close()
	ts.bufLen = 512 // keeps the heap path of a -race build small
	takeBuffers(ts, n)
	chunks, total := len(ts.slab.chunks), int64(n*ts.bufLen)
	if !wantMaps() {
		if chunks != 0 {
			t.Fatalf("a build without mappings mapped %d chunks", chunks)
		}
		return
	}
	if chunks == 0 || chunks > bits.Len(n) {
		t.Fatalf("%d buffers mapped %d chunks, want 1..%d", n, chunks, bits.Len(n))
	}
	if got := slabBytes(ts); got < total || got > 2*total+minSlabChunk {
		t.Fatalf("%d bytes of buffers mapped as %d", total, got)
	}
}

func TestClosedStoreRefuses(t *testing.T) {
	ts := unboundedStore(t)
	if err := ts.installDict(0, seededState(100)); err != nil {
		t.Fatal(err)
	}
	mapped, before := slabBytes(ts), scrapeMappedBytes(t)
	if err := ts.close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.close(); err != nil {
		t.Fatalf("a second close: %v", err)
	}
	if len(ts.slab.chunks) != 0 {
		t.Fatal("close left the slab mapped")
	}
	// Other stores' finalizers may unmap too: the gauge falls at least by
	// this store's mappings.
	if drop := before - scrapeMappedBytes(t); drop < mapped {
		t.Fatalf("fedzkt_store_mapped_bytes fell by %d at close, the store had %d mapped", drop, mapped)
	}
	ts.drop(0) // a no-op: the entry's buffer is gone
	_, readErr := ts.read(0, func([]byte) error { t.Error("a closed store lent its bytes"); return nil })
	_, payloadErr := ts.appendPayload(nil, 0)
	for what, err := range map[string]error{
		"read":     readErr,
		"payload":  payloadErr,
		"put":      ts.installDict(1, seededState(101)),
		"putBytes": ts.putBytes(0, []byte{1}),
		"readInto": func() error { _, err := ts.readInto(0, seededState(1)); return err }(),
	} {
		if !errors.Is(err, errStoreClosed) {
			t.Errorf("%s on a closed store: %v, want %v", what, err, errStoreClosed)
		}
	}
}

func TestCloseWaitsForPinnedRead(t *testing.T) {
	ts := unboundedStore(t)
	want := seededState(100)
	if err := ts.installDict(0, want); err != nil {
		t.Fatal(err)
	}
	wantEnc, err := codec.Encode(ts.codec, want)
	if err != nil {
		t.Fatal(err)
	}
	pinned, closed, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		_, err := ts.read(0, func(enc []byte) error {
			close(pinned)
			<-closed
			// The store is closed: its mapping must still be there.
			if !bytes.Equal(enc, wantEnc) {
				return errors.New("a pinned read's bytes changed under close")
			}
			return nil
		})
		done <- err
	}()
	<-pinned
	if err := ts.close(); err != nil {
		t.Fatal(err)
	}
	if wantMaps() && len(ts.slab.chunks) == 0 {
		t.Fatal("close unmapped the slab under a pinned read")
	}
	close(closed)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(ts.slab.chunks) != 0 {
		t.Fatal("the last read after close left the slab mapped")
	}
}

func TestUnclosedStoreUnmapsWhenUnreachable(t *testing.T) {
	if !wantMaps() {
		t.Skip("this build takes buffers from the heap")
	}
	// Let earlier tests' unreachable stores go first, so the gauge falls
	// only by this one's mapping below.
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	const size = 64 << 20
	mapped := func() int64 {
		ts := unboundedStore(t)
		ts.bufLen = size
		if err := ts.putBytes(0, []byte{1}); err != nil {
			t.Fatal(err)
		}
		return slabBytes(ts)
	}()
	if mapped < size {
		t.Fatalf("the store mapped %d bytes for a %d-byte buffer", mapped, size)
	}
	after := scrapeMappedBytes(t)
	deadline := time.Now().Add(10 * time.Second)
	for scrapeMappedBytes(t) > after-mapped {
		if time.Now().After(deadline) {
			t.Fatalf("an unreachable store's %d mapped bytes were not released (gauge %d → %d)", mapped, after, scrapeMappedBytes(t))
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlotBuffersTakenAtFirstWrite: registration touches no slot store, so
// a resident federation holds no slot buffer and maps nothing right after
// New, at depth 0 and at depth 2, where trained states rest in the device
// stores. After a run every unbounded store has taken exactly as many
// buffers as it held states at once: a store's buffers are its own and
// each state it holds needs one, so Σ built == Σ peak over a side's stores
// means built == peak for each.
func TestSlotBuffersTakenAtFirstWrite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"depth0", resident},
		{"depth2", func(c *Config) { resident(c); c.PipelineDepth = 2 }},
		{"depth0-int8", func(c *Config) { resident(c); c.StateCodec = codec.Int8 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := scrapeMappedBytes(t)
			co := toyFleet(t, 3, tc.mutate)
			var server, device []*slotStore
			for _, c := range co.server.cohorts.cohorts {
				server = append(server, c.slots)
			}
			for _, st := range co.devStore {
				device = append(device, st)
			}
			for _, st := range append(append([]*slotStore(nil), server...), device...) {
				if len(st.spare) != 0 || slabBytes(st) != 0 {
					t.Fatalf("after New a store holds %d spare buffers and %d mapped bytes, want none", len(st.spare), slabBytes(st))
				}
			}
			// Other tests' unreachable stores may be unmapped meanwhile, so
			// the process-wide gauge can fall, but New must not raise it.
			if after := scrapeMappedBytes(t); after > before {
				t.Fatalf("fedzkt_store_mapped_bytes rose %d → %d across New", before, after)
			}
			if _, err := co.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for side, s := range map[string]struct {
				stores []*slotStore
				built  int64
			}{
				"server": {server, co.Server().ReplicaStoreStats().BuffersBuilt},
				"device": {device, co.DeviceStoreStats().BuffersBuilt},
			} {
				peaks := 0
				for _, st := range s.stores {
					peaks += st.peak
				}
				if s.built != int64(peaks) {
					t.Errorf("%s stores built %d buffers, want their %d states held at once", side, s.built, peaks)
				}
			}
			if tc.name == "depth2" {
				held := 0
				for _, st := range device {
					held += st.peak
				}
				if held == 0 {
					t.Error("no trained state rested in a device store at depth 2")
				}
			}
		})
	}
}
