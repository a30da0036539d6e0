package codec

// SpillFile is the disk tier of the server's replica store: a fixed-stride
// record file keyed by slot index. Each slot holds one encoded state
// container (the same bytes a resident slot would hold), written with
// pwrite/pread, position-independent under concurrent readers. Records
// are allocated densely: a slot's first write takes the next record
// number, kept in an in-memory index, so the file is Records()·stride
// bytes long whatever the slot keys are — a million-device federation
// whose rounds only ever touch a few hundred replicas pays disk, in
// apparent size too (ulimit -f, quotas), for exactly those records.
//
// A record is an 8-byte header — a 4-byte little-endian length followed
// by a 4-byte CRC32C (Castagnoli) of the container bytes — then the
// container itself. The length lets Read reject torn or foreign data
// (length 0, > the record capacity, or past the end of the file) with a
// clear error, and the checksum catches silent corruption of the stored
// bytes (a flipped bit on disk) before they reach the container decoder.
// Every corrupt record is a typed ErrSpillChecksum error the tiered store
// degrades on.
//
// Record I/O retries transient errors (EIO and injected faults) a
// bounded number of times with short backoff before reporting them;
// corruption errors (bad length, torn record, checksum mismatch) are
// never retried — rereading corrupt media does not uncorrupt it. The
// chaos failpoints spill.read.err, spill.write.err and spill.read.flip
// arm this path.
//
// Write and Read are goroutine-safe for distinct slots (the underlying
// pwrite/pwread are positional); callers serialise per-slot access, which
// the tiered store's mutex already provides. The record index and the
// traffic counters are internally synchronised.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
)

// spillHeader is the per-record header size: 4-byte length + 4-byte
// CRC32C of the record bytes.
const spillHeader = 8

// spillRetries bounds how many times a transient record I/O error is
// retried before it is reported; spillBackoff is the first retry's
// sleep, doubling per attempt (1, 2, 4 ms — enough to ride out a
// momentary EIO without stalling a round).
const (
	spillRetries = 3
	spillBackoff = time.Millisecond
)

// castagnoli is the CRC32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSpillChecksum marks a spill record whose stored bytes fail their
// CRC32C — silent corruption, reported (never retried) so the tiered
// store can degrade the member instead of decoding garbage.
var ErrSpillChecksum = errors.New("codec: spill record checksum mismatch")

// SpillFile is an open fixed-stride spill store. Create one per
// (shard, architecture) pair with CreateSpill.
type SpillFile struct {
	f         *os.File
	path      string
	recordCap int // max container bytes per record
	stride    int64

	mu    sync.Mutex
	index map[int]int64 // slot → record number, for every written slot
	next  int64         // record numbers handed out so far
	free  []int64       // record numbers no slot holds: a failed first write's, or forgotten

	reads, writes         atomic.Int64
	readBytes, writeBytes atomic.Int64
	retries               atomic.Int64
}

// CreateSpill creates (truncating) a spill file at path whose records hold
// at most recordCap container bytes each.
func CreateSpill(path string, recordCap int) (*SpillFile, error) {
	if recordCap <= 0 {
		return nil, fmt.Errorf("codec: spill record capacity %d must be positive", recordCap)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("codec: creating spill file: %w", err)
	}
	return &SpillFile{f: f, path: path, recordCap: recordCap, stride: int64(spillHeader + recordCap),
		index: make(map[int]int64)}, nil
}

// Path returns the backing file's path.
func (s *SpillFile) Path() string { return s.path }

// withRetry runs op up to spillRetries+1 times, sleeping with doubling
// backoff between attempts. Only transient errors are retried; corrupt
// records (ErrSpillChecksum, bad lengths) surface immediately.
func (s *SpillFile) withRetry(op func() error) error {
	backoff := spillBackoff
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil || errors.Is(err, ErrSpillChecksum) || attempt >= spillRetries {
			return err
		}
		s.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Write stores rec at slot, marking it written. len(rec) must be in
// (0, recordCap]. Transient write errors are retried with backoff.
func (s *SpillFile) Write(slot int, rec []byte) error {
	if slot < 0 {
		return fmt.Errorf("codec: spill write: negative slot %d", slot)
	}
	if len(rec) == 0 || len(rec) > s.recordCap {
		return fmt.Errorf("codec: spill write slot %d: record is %d bytes, capacity %d", slot, len(rec), s.recordCap)
	}
	var hdr [spillHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec))) //nolint:gosec // bounded by recordCap
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(rec, castagnoli))
	// A slot's first write allocates its record: a number given back by a
	// failed first write or by Forget, else the next one.
	s.mu.Lock()
	num, known := s.index[slot]
	if !known {
		if n := len(s.free); n > 0 {
			num, s.free = s.free[n-1], s.free[:n-1]
		} else {
			num = s.next
			s.next++
		}
	}
	s.mu.Unlock()
	off := num * s.stride
	err := s.withRetry(func() error {
		if err := chaos.Err(chaos.SiteSpillWriteErr, "spill write"); err != nil {
			return err
		}
		// Two positional writes instead of one staged header+record
		// copy. The header goes last: it carries the length and CRC that
		// validate the payload, so a write torn between the two leaves a
		// record Read rejects rather than one it misreads.
		if _, err := s.f.WriteAt(rec, off+spillHeader); err != nil {
			return err
		}
		_, err := s.f.WriteAt(hdr[:], off)
		return err
	})
	s.mu.Lock()
	switch {
	case err == nil:
		s.index[slot] = num
	case !known:
		s.free = append(s.free, num)
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("codec: spill write slot %d: %w", slot, err)
	}
	s.writes.Add(1)
	s.writeBytes.Add(int64(len(rec)))
	return nil
}

// record returns slot's record number, if it holds one.
func (s *SpillFile) record(slot int) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.index[slot]
	return n, ok
}

// Written reports whether slot holds a record.
func (s *SpillFile) Written(slot int) bool {
	_, ok := s.record(slot)
	return ok
}

// Forget drops slot's record, if it holds one: the slot reads as never
// written, and the next first write of any slot takes the record number.
// Callers must not race it with a Write or Read of the same slot.
func (s *SpillFile) Forget(slot int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if num, ok := s.index[slot]; ok {
		delete(s.index, slot)
		s.free = append(s.free, num)
	}
}

// Read appends slot's record bytes to dst (pass dst[:0] to reuse a
// buffer) and returns the extended slice. Reading an unwritten slot is an
// error — callers consult Written (or their own residency state) first.
// Transient read errors are retried with backoff; a record whose bytes
// fail their stored CRC32C returns a wrapped ErrSpillChecksum without
// retrying (the caller's degrade path owns corrupt records).
func (s *SpillFile) Read(slot int, dst []byte) ([]byte, error) {
	num, ok := s.record(slot)
	if !ok {
		return nil, fmt.Errorf("codec: spill read: slot %d not written", slot)
	}
	off := num * s.stride
	start := len(dst)
	err := s.withRetry(func() error {
		dst = dst[:start]
		if err := chaos.Err(chaos.SiteSpillReadErr, "spill read"); err != nil {
			return err
		}
		var hdr [spillHeader]byte
		if _, err := s.f.ReadAt(hdr[:], off); err != nil {
			return torn(err)
		}
		n := int(binary.LittleEndian.Uint32(hdr[:4]))
		if n == 0 || n > s.recordCap {
			return fmt.Errorf("corrupt record length %d (capacity %d): %w", n, s.recordCap, ErrSpillChecksum)
		}
		want := binary.LittleEndian.Uint32(hdr[4:])
		// Read straight into dst's tail, grown (at most once) to fit.
		dst = slices.Grow(dst, n)[:start+n]
		if _, err := s.f.ReadAt(dst[start:], off+spillHeader); err != nil {
			return torn(err)
		}
		// The spill.read.flip failpoint models silent media corruption:
		// the flipped bit must be caught by the checksum below.
		chaos.FlipBit(chaos.SiteSpillFlip, dst[start:])
		if got := crc32.Checksum(dst[start:], castagnoli); got != want {
			return fmt.Errorf("stored CRC %08x, computed %08x: %w", want, got, ErrSpillChecksum)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("codec: spill read slot %d: %w", slot, err)
	}
	s.reads.Add(1)
	s.readBytes.Add(int64(len(dst) - start))
	return dst, nil
}

// torn classifies a record read error: a file that ends inside the record
// is corrupt (a truncated file, or a length prefix past the end of it),
// which rereading does not mend; anything else is an I/O error.
func torn(err error) error {
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("record cut short by the end of the file: %w", ErrSpillChecksum)
	}
	return err
}

// Records returns how many distinct slots hold a record.
func (s *SpillFile) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Reads and Writes return the cumulative record I/O operation counts;
// ReadBytes and WriteBytes the cumulative record payload traffic.
func (s *SpillFile) Reads() int64      { return s.reads.Load() }
func (s *SpillFile) Writes() int64     { return s.writes.Load() }
func (s *SpillFile) ReadBytes() int64  { return s.readBytes.Load() }
func (s *SpillFile) WriteBytes() int64 { return s.writeBytes.Load() }

// Close closes and removes the backing file. Spill records are an
// eviction tier of in-memory state, not a persistence format (checkpoints
// are), so the file never outlives its store.
func (s *SpillFile) Close() error {
	err := s.f.Close()
	if rmErr := os.Remove(s.path); err == nil {
		err = rmErr
	}
	return err
}
