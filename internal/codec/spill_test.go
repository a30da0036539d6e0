package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/chaos"
)

func TestSpillFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cohort.spill")
	s, err := CreateSpill(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	recA := bytes.Repeat([]byte{0xAB}, 64) // exactly at capacity
	recB := []byte{1, 2, 3}
	if err := s.Write(5, recA); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, recB); err != nil {
		t.Fatal(err)
	}
	if got := s.Records(); got != 2 {
		t.Fatalf("Records=%d, want 2", got)
	}
	for _, tc := range []struct {
		slot int
		want []byte
	}{{5, recA}, {0, recB}} {
		got, err := s.Read(tc.slot, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("slot %d read %v, want %v", tc.slot, got, tc.want)
		}
	}

	// Read appends to dst, preserving the prefix (the buffer-reuse
	// contract the tiered store depends on).
	prefix := []byte{9, 9}
	got, err := s.Read(0, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte{9, 9}, recB...)) {
		t.Fatalf("append-style read got %v", got)
	}

	// Overwriting a slot must not double-count it.
	if err := s.Write(5, recB); err != nil {
		t.Fatal(err)
	}
	if got := s.Records(); got != 2 {
		t.Fatalf("Records after overwrite=%d, want 2", got)
	}
	got, err = s.Read(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, recB) {
		t.Fatalf("overwritten slot read %v, want %v", got, recB)
	}
	if s.Reads() == 0 || s.Writes() == 0 || s.ReadBytes() == 0 || s.WriteBytes() == 0 {
		t.Fatal("traffic counters did not advance")
	}
}

func TestSpillFileErrors(t *testing.T) {
	s, err := CreateSpill(filepath.Join(t.TempDir(), "x.spill"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := CreateSpill(filepath.Join(t.TempDir(), "y"), 0); err == nil {
		t.Fatal("want error for non-positive record capacity")
	}
	if err := s.Write(-1, []byte{1}); err == nil {
		t.Fatal("want error for negative slot")
	}
	if err := s.Write(0, nil); err == nil {
		t.Fatal("want error for empty record")
	}
	if err := s.Write(0, make([]byte, 17)); err == nil {
		t.Fatal("want error for record over capacity")
	}
	if _, err := s.Read(3, nil); err == nil {
		t.Fatal("want error reading an unwritten slot")
	}
	if s.Written(3) || s.Written(-1) {
		t.Fatal("unwritten slots reported as written")
	}
}

// TestSpillFileCorruptRecord: a record whose on-disk length prefix was
// damaged must surface as a clear error, not as garbage container bytes.
func TestSpillFileCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.spill")
	s, err := CreateSpill(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Write(2, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Smash the length prefix of the slot's record — the file's first, as
	// the only one written — with a value beyond the capacity.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := s.Read(2, nil); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("want corrupt-record error, got %v", err)
	}
}

// TestSpillFileChecksum: a flipped bit in a record's stored bytes — the
// length prefix intact — must surface as a typed ErrSpillChecksum, not
// as silently corrupt container bytes.
func TestSpillFileChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.spill")
	s, err := CreateSpill(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Write(1, []byte{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit of the first record's payload (past the 8-byte header).
	if _, err := f.WriteAt([]byte{10 ^ 0x04}, int64(spillHeader)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = s.Read(1, nil)
	if !errors.Is(err, ErrSpillChecksum) {
		t.Fatalf("want ErrSpillChecksum, got %v", err)
	}
}

// TestSpillFileChaosRetry: a transiently injected I/O fault (chaos
// spill.read.err / spill.write.err firing once) is absorbed by the
// bounded retry loop; a persistently firing fault exhausts the retries
// and surfaces. A chaos-flipped bit is caught by the CRC and is NOT
// retried — corruption isn't transient.
func TestSpillFileChaosRetry(t *testing.T) {
	armPlan := func(t *testing.T, spec string) {
		t.Helper()
		p, err := chaos.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		chaos.Activate(p)
		t.Cleanup(chaos.Deactivate)
	}
	newFile := func(t *testing.T) *SpillFile {
		t.Helper()
		s, err := CreateSpill(filepath.Join(t.TempDir(), "chaos.spill"), 16)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}

	t.Run("transient write recovers", func(t *testing.T) {
		s := newFile(t)
		armPlan(t, "spill.write.err=on:1")
		if err := s.Write(0, []byte{1, 2}); err != nil {
			t.Fatalf("one injected fault must be retried away: %v", err)
		}
		if s.retries.Load() == 0 {
			t.Fatal("retry counter did not advance")
		}
	})
	t.Run("transient read recovers", func(t *testing.T) {
		s := newFile(t)
		if err := s.Write(0, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
		armPlan(t, "spill.read.err=on:1")
		got, err := s.Read(0, nil)
		if err != nil || !bytes.Equal(got, []byte{1, 2}) {
			t.Fatalf("one injected fault must be retried away: %v %v", got, err)
		}
	})
	t.Run("persistent fault surfaces typed", func(t *testing.T) {
		s := newFile(t)
		if err := s.Write(0, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
		armPlan(t, "spill.read.err=every:1")
		_, err := s.Read(0, nil)
		var inj *chaos.InjectedError
		if !errors.As(err, &inj) {
			t.Fatalf("want *chaos.InjectedError after exhausted retries, got %v", err)
		}
	})
	t.Run("bit flip fails checksum without retry", func(t *testing.T) {
		s := newFile(t)
		if err := s.Write(0, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		armPlan(t, "spill.read.flip=on:1")
		_, err := s.Read(0, nil)
		if !errors.Is(err, ErrSpillChecksum) {
			t.Fatalf("want ErrSpillChecksum from flipped bit, got %v", err)
		}
		if s.retries.Load() != 0 {
			t.Fatal("checksum failure must not be retried")
		}
		// The flip fired once (on:1): the next read sees clean bytes.
		got, err := s.Read(0, nil)
		if err != nil || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
			t.Fatalf("clean reread failed: %v %v", got, err)
		}
	})
}

// TestSpillFileSparseAndClose: a huge slot index is addressable like any
// other — and Close removes the backing file (spill is an eviction tier,
// not persistence).
func TestSpillFileSparseAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sparse.spill")
	s, err := CreateSpill(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{7}, 100)
	if err := s.Write(1_000_000, rec); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Fatal("high-slot record mismatch")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Close left the spill file behind: %v", err)
	}
}

// TestSpillFileDenseAllocator: records are numbered in first-write order,
// whatever the slot keys, so the file is as long as the records written —
// a device-id-keyed store of a million devices must not trip ulimit -f by
// its apparent size — and a rewrite lands in the slot's own record. A
// first write that fails gives its record number back, as Forget does.
func TestSpillFileDenseAllocator(t *testing.T) {
	const recordCap = 48
	const stride = spillHeader + recordCap
	path := filepath.Join(t.TempDir(), "dense.spill")
	s, err := CreateSpill(path, recordCap)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	size := func() int64 {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	recA, recB := bytes.Repeat([]byte{0xA7}, recordCap), bytes.Repeat([]byte{0xB1}, recordCap)
	if err := s.Write(7, recA); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1<<20, recB); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != 2*stride {
		t.Fatalf("two records at slots 7 and 1<<20 make a %d-byte file, want 2×stride = %d", got, 2*stride)
	}
	if !s.Written(7) || !s.Written(1<<20) || s.Written(0) || s.Written(8) || s.Records() != 2 {
		t.Fatalf("Written/Records wrong: 7=%v 1<<20=%v 0=%v 8=%v records=%d",
			s.Written(7), s.Written(1<<20), s.Written(0), s.Written(8), s.Records())
	}
	for slot, want := range map[int][]byte{7: recA, 1 << 20: recB} {
		if got, err := s.Read(slot, nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("slot %d read back %x (%v), want %x", slot, got, err, want)
		}
	}
	// A rewrite reuses the slot's record: same file, same neighbours.
	if err := s.Write(7, recB); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(7, nil); err != nil || !bytes.Equal(got, recB) {
		t.Fatalf("rewritten slot 7 read back %x (%v)", got, err)
	}
	if got, err := s.Read(1<<20, nil); err != nil || !bytes.Equal(got, recB) {
		t.Fatalf("slot 1<<20 after its neighbour's rewrite read back %x (%v)", got, err)
	}
	if got := size(); got != 2*stride || s.Records() != 2 {
		t.Fatalf("after a rewrite: %d bytes, %d records, want %d and 2", got, s.Records(), 2*stride)
	}

	// A first write that exhausts its retries leaves the slot unwritten and
	// its record number free for the next new slot.
	p, err := chaos.Parse("spill.write.err=every:1")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Activate(p)
	err = s.Write(3, recA)
	chaos.Deactivate()
	if err == nil || s.Written(3) || s.Records() != 2 {
		t.Fatalf("failed first write: err=%v written=%v records=%d", err, s.Written(3), s.Records())
	}
	if err := s.Write(4, recA); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != 3*stride || s.Records() != 3 {
		t.Fatalf("after a failed and a good first write: %d bytes, %d records, want %d and 3", got, s.Records(), 3*stride)
	}

	// A forgotten slot reads as never written, and its record goes to the
	// next new slot: the file does not grow.
	s.Forget(7)
	s.Forget(9) // holds none: a no-op
	if s.Written(7) || s.Records() != 2 {
		t.Fatalf("after Forget(7): written=%v records=%d, want false and 2", s.Written(7), s.Records())
	}
	if _, err := s.Read(7, nil); err == nil {
		t.Fatal("a forgotten slot read back a record")
	}
	if err := s.Write(11, recA); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != 3*stride || s.Records() != 3 {
		t.Fatalf("after Forget and a new slot: %d bytes, %d records, want %d and 3", got, s.Records(), 3*stride)
	}
	if got, err := s.Read(1<<20, nil); err != nil || !bytes.Equal(got, recB) {
		t.Fatalf("slot 1<<20 after its neighbour's record was reused read back %x (%v)", got, err)
	}
}
