package fedzkt

// Reserved buffers come from a store's slab: anonymous mappings on Linux
// without -race (slab_mmap.go), the heap otherwise (slab_heap.go). The
// mapping cases are checked through fedzkt_store_mapped_bytes and the
// store's own chunks; under -race the same tests run the heap path.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// wantMaps reports whether this build must reserve from mappings.
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

// reservingStore is an unbounded float64 "mlp" store, as a memory-store
// cohort is.
func reservingStore(t *testing.T) *slotStore {
	t.Helper()
	cdc, err := codec.Get(codec.Float64)
	if err != nil {
		t.Fatal(err)
	}
	return newSlotStore(cdc, sigOf(seededState(1)), "", nil, nil, new(storeCounters))
}

// slabBytes is what ts's slab has mapped.
func slabBytes(ts *slotStore) int64 {
	var n int64
	for _, c := range ts.slab.chunks {
		n += int64(len(c))
	}
	return n
}

func TestReservedBuffersAreZeroAndExact(t *testing.T) {
	ts := reservingStore(t)
	defer ts.close()
	for i := 0; i < 8; i++ {
		if err := ts.reserve(); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range ts.spare {
		if len(b) != ts.reserveLen || cap(b) != len(b) {
			t.Fatalf("reserved buffer %d: len %d cap %d, want both %d", i, len(b), cap(b), ts.reserveLen)
		}
		if bytes.ContainsFunc(b, func(r rune) bool { return r != 0 }) {
			t.Fatalf("reserved buffer %d is not zero", i)
		}
	}
	if got := slabBytes(ts); wantMaps() != (got >= int64(8*ts.reserveLen)) {
		t.Fatalf("the slab mapped %d bytes for 8 buffers of %d (mappings expected: %v)", got, ts.reserveLen, wantMaps())
	}
	if wantMaps() && scrapeMappedBytes(t) < slabBytes(ts) {
		t.Fatalf("fedzkt_store_mapped_bytes %d is less than one store's mappings, %d", scrapeMappedBytes(t), slabBytes(ts))
	}
	// A first write fills the popped buffer in place: it stays in the
	// mapping, and the next buffer is untouched by it.
	if err := ts.installDict(0, seededState(100)); err != nil {
		t.Fatal(err)
	}
	if e := ts.hot[0]; len(e.enc) != ts.reserveLen || cap(e.enc) != ts.reserveLen {
		t.Fatalf("the first write left a %d/%d-byte entry, want the reserved %d", len(e.enc), cap(e.enc), ts.reserveLen)
	}
	if next := ts.spare[len(ts.spare)-1]; bytes.ContainsFunc(next, func(r rune) bool { return r != 0 }) {
		t.Fatal("a first write reached the next reserved buffer")
	}
}

func TestReservationsMapLogarithmicChunks(t *testing.T) {
	const n = 100_000
	ts := reservingStore(t)
	defer ts.close()
	ts.reserveLen = 512 // keeps the heap path of a -race build small
	for i := 0; i < n; i++ {
		if err := ts.reserve(); err != nil {
			t.Fatal(err)
		}
	}
	chunks, total := len(ts.slab.chunks), int64(n*ts.reserveLen)
	if !wantMaps() {
		if chunks != 0 {
			t.Fatalf("a build without mappings mapped %d chunks", chunks)
		}
		return
	}
	if chunks == 0 || chunks > bits.Len(n) {
		t.Fatalf("%d reservations mapped %d chunks, want 1..%d", n, chunks, bits.Len(n))
	}
	if got := slabBytes(ts); got < total || got > 2*total+minSlabChunk {
		t.Fatalf("%d reserved bytes mapped as %d", total, got)
	}
}

func TestClosedStoreRefuses(t *testing.T) {
	ts := reservingStore(t)
	for i := 0; i < 3; i++ {
		if err := ts.reserve(); err != nil {
			t.Fatal(err)
		}
	}
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
		"reserve":  ts.reserve(),
		"readInto": func() error { _, err := ts.readInto(0, seededState(1)); return err }(),
	} {
		if !errors.Is(err, errStoreClosed) {
			t.Errorf("%s on a closed store: %v, want %v", what, err, errStoreClosed)
		}
	}
}

func TestCloseWaitsForPinnedRead(t *testing.T) {
	ts := reservingStore(t)
	if err := ts.reserve(); err != nil {
		t.Fatal(err)
	}
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
		t.Skip("this build reserves on the heap")
	}
	// Let earlier tests' unreachable stores go first, so the gauge falls
	// only by this one's mapping below.
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	const size = 64 << 20
	mapped := func() int64 {
		ts := reservingStore(t)
		ts.reserveLen = size
		if err := ts.reserve(); err != nil {
			t.Fatal(err)
		}
		return slabBytes(ts)
	}()
	if mapped < size {
		t.Fatalf("the store mapped %d bytes for a %d-byte reservation", mapped, size)
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
