package codec

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"path/filepath"
	"testing"

	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// fuzzSeedState is the small state the seed corpus encodes: a matrix, a
// vector and a scalar, with the values quantisation treats specially.
func fuzzSeedState() nn.StateDict {
	return nn.StateDict{
		"fc.w":   tensor.FromSlice([]float64{-1.5, 0, 0.25, 3, math.Inf(1), -7e4}, 2, 3),
		"fc.b":   tensor.FromSlice([]float64{1e-9, -2}, 2),
		"scalar": tensor.FromSlice([]float64{42}, 1),
	}
}

// sameBits reports whether a and b hold the same names with bitwise
// equal values (NaN payloads included).
func sameBits(a, b nn.StateDict) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ta := range a {
		tb, ok := b[name]
		if !ok || ta.Len() != tb.Len() {
			return false
		}
		da, db := ta.Data(), tb.Data()
		for i := range da {
			if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
				return false
			}
		}
	}
	return true
}

// FuzzContainer drives the three readers of untrusted containers —
// uploads feed Layout, downloads and the device store feed DecodeInto,
// checkpoints feed Decode — with arbitrary bytes. They must accept or
// reject the same inputs, never panic, never materialise more elements
// than the input has validated payload bytes for, agree on every decoded
// bit, and a rejected DecodeInto must leave its destination untouched.
// The committed corpus (testdata/fuzz/FuzzContainer) holds the seed state
// as each codec wrote it at format version 1, plus a truncated and a
// duplicate-name container — bytes that must keep their verdicts — while
// the seeds added below follow whatever the encoders write today.
func FuzzContainer(f *testing.F) {
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			f.Fatal(err)
		}
		b, err := Encode(c, fuzzSeedState())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		entries, layoutErr := Layout(b)
		sd, decodeErr := Decode(b)
		if (layoutErr == nil) != (decodeErr == nil) {
			t.Fatalf("Layout error %v but Decode error %v", layoutErr, decodeErr)
		}
		if decodeErr != nil {
			dst := fuzzSeedState()
			before := dst.Clone()
			if err := DecodeInto(b, dst); err == nil {
				t.Fatalf("DecodeInto accepted a container Decode rejects (%v)", decodeErr)
			}
			if !sameBits(dst, before) {
				t.Fatal("a rejected DecodeInto modified its destination")
			}
			return
		}

		// Every stored element costs at least one payload byte, so the
		// input's length bounds what any reader may materialise.
		if len(sd) != len(entries) {
			t.Fatalf("Decode returned %d tensors, Layout %d", len(sd), len(entries))
		}
		total := 0
		for _, e := range entries {
			if got, ok := sd[e.Name]; !ok || got.Len() != e.Numel {
				t.Fatalf("tensor %q: Layout says %d elements, Decode disagrees", e.Name, e.Numel)
			}
			total += e.Numel
		}
		if total > len(b) {
			t.Fatalf("decoded %d elements from %d bytes", total, len(b))
		}

		// A destination of the container's own layout decodes to the same
		// bits; the same destination with one tensor too many is rejected
		// before anything is written.
		dst := make(nn.StateDict, len(sd)+1)
		for name, tt := range sd {
			dst[name] = tensor.Full(-1, tt.Len())
		}
		if err := DecodeInto(b, dst); err != nil {
			t.Fatalf("DecodeInto rejected a container Decode accepts: %v", err)
		}
		if !sameBits(dst, sd) {
			t.Fatal("DecodeInto and Decode disagree on the decoded values")
		}
		extra := "extra"
		for _, taken := sd[extra]; taken; _, taken = sd[extra] {
			extra += "+"
		}
		for _, tt := range dst {
			tt.Fill(-1)
		}
		dst[extra] = tensor.Full(-1, 1)
		before := dst.Clone()
		if err := DecodeInto(b, dst); err == nil {
			t.Fatal("DecodeInto accepted a destination with a tensor the container lacks")
		}
		if !sameBits(dst, before) {
			t.Fatal("a rejected DecodeInto modified its destination")
		}
	})
}

// spillRecord frames container bytes as a spill record: length, CRC32C,
// then the bytes themselves.
func spillRecord(b []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(b)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(b, castagnoli))
	return append(rec, b...)
}

// FuzzSpillRecord replaces the on-disk bytes of a spill record — header
// and body — with arbitrary input and reads the slot back. Read must never
// panic; a record it returns holds at most the capacity's bytes, whose
// length and CRC32C are the ones its header stores; and a record it
// refuses — a bad length, a checksum mismatch, a file that ends inside
// the record — is an ErrSpillChecksum, since the only fault in the file
// is the input's. The committed corpus (testdata/fuzz/FuzzSpillRecord)
// holds a valid record, a zero length, a length above the capacity, a
// flipped CRC byte and a truncated header.
func FuzzSpillRecord(f *testing.F) {
	c, err := Get("float64")
	if err != nil {
		f.Fatal(err)
	}
	valid, err := Encode(c, fuzzSeedState())
	if err != nil {
		f.Fatal(err)
	}
	s, err := CreateSpill(filepath.Join(f.TempDir(), "fuzz.spill"), len(valid)+16)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	f.Add(spillRecord(valid))
	f.Fuzz(func(t *testing.T, disk []byte) {
		if err := s.Write(0, valid); err != nil {
			t.Fatal(err)
		}
		// The slot's record is the file's first; the file becomes the
		// input, cut to one record's stride.
		disk = disk[:min(len(disk), int(s.stride))]
		if err := s.f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.f.WriteAt(disk, 0); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(0, nil)
		if err != nil {
			if !errors.Is(err, ErrSpillChecksum) {
				t.Fatalf("a corrupt record gave %v, want an ErrSpillChecksum", err)
			}
			return
		}
		if len(disk) < spillHeader {
			t.Fatalf("read %d bytes from a %d-byte file", len(got), len(disk))
		}
		n, sum := binary.LittleEndian.Uint32(disk), binary.LittleEndian.Uint32(disk[4:])
		if len(got) > s.recordCap || uint32(len(got)) != n {
			t.Fatalf("read %d bytes, header says %d, capacity %d", len(got), n, s.recordCap)
		}
		if crc32.Checksum(got, castagnoli) != sum {
			t.Fatal("returned bytes fail the header's CRC32C")
		}
	})
}
