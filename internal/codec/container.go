package codec

// The container format. All multi-byte integers are little-endian; all
// variable-length integers are unsigned varints (encoding/binary).
//
//	magic   "FZKS" (4 bytes)
//	version 1 byte (currently 1)
//	count   uvarint — number of tensors
//	then per tensor, in sorted-name order:
//	  nameLen uvarint, name bytes
//	  dtype   1 byte
//	  ndims   uvarint, then each dim as a uvarint
//	  payload dtype-dependent:
//	    float64: 8·n bytes — IEEE 754 binary64 bits per element
//	    float16: 2·n bytes — IEEE 754 binary16 bits per element
//	    int8:    16 + n bytes — offset float64, step float64, then one
//	             quantised byte per element (value = offset + byte·step)
//
// The header is versioned and every tensor carries its own dtype tag, so
// readers reject foreign or future formats with a clear error and mixed
// containers decode without out-of-band configuration.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// containerVersion is the format version this build writes and reads.
const containerVersion = 1

var containerMagic = [4]byte{'F', 'Z', 'K', 'S'}

// Per-tensor element encodings.
const (
	dtFloat64 byte = 1
	dtFloat16 byte = 2
	dtInt8    byte = 3
)

// maxDim bounds any single dimension and the element count of a decoded
// tensor, so corrupt headers fail fast instead of attempting an absurd
// allocation.
const maxDim = 1 << 40

// uvarintLen is the encoded size of x as an unsigned varint.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// payloadLen is the dtype-dependent byte size of a numel-element tensor
// payload (ok false for an unknown dtype).
func payloadLen(dtype byte, numel int) (n int, ok bool) {
	switch dtype {
	case dtFloat64:
		return 8 * numel, true
	case dtFloat16:
		return 2 * numel, true
	case dtInt8:
		return 16 + numel, true
	}
	return 0, false
}

// The container size is a pure function of the layout and the dtype:
// headerSize plus one tensorSize per tensor. appendContainer sizes its
// buffer with it and Size reports it, so a buffer sized for a layout is
// exactly what the layout's encoding fills.

// headerSize is the container bytes before the first tensor.
func headerSize(count int) int {
	return len(containerMagic) + 1 + uvarintLen(uint64(count))
}

// tensorSize is the container bytes of one tensor — name, dtype tag, shape
// header and payload — whose ndims dimensions are dim(0), dim(1), …; ok is
// false for a non-positive dimension, which the reader would reject.
func tensorSize(name string, dtype byte, ndims int, dim func(int) int) (n int, ok bool) {
	n = uvarintLen(uint64(len(name))) + len(name) + 1 + uvarintLen(uint64(ndims))
	numel := 1
	for d := 0; d < ndims; d++ {
		if dim(d) <= 0 {
			return 0, false
		}
		n += uvarintLen(uint64(dim(d)))
		numel *= dim(d)
	}
	pl, _ := payloadLen(dtype, numel)
	return n + pl, true
}

// Size returns the length of c's container for a state of the given
// tensor names and shapes (in any order): exactly what c.Append adds to
// its buffer for such a state.
func Size(c Codec, names []string, shapes [][]int) int {
	size := headerSize(len(names))
	for i, n := range names {
		ts, _ := tensorSize(n, c.elemDtype(), len(shapes[i]), func(d int) int { return shapes[i][d] })
		size += ts
	}
	return size
}

// appendContainer writes sd as a container with the given dtype for every
// tensor. The container size is a pure function of the layout, so it is
// computed up front and dst grows at most once, to exactly that size;
// the element loops then write into the sized buffer by index.
func appendContainer(dst []byte, sd nn.StateDict, dtype byte) ([]byte, error) {
	if _, ok := payloadLen(dtype, 0); !ok {
		return nil, fmt.Errorf("codec: unknown dtype %d", dtype)
	}
	// A stack buffer keeps name sorting off the heap for every
	// architecture in the zoo's small half; larger dicts spill.
	var nameBuf [32]string
	names := nameBuf[:0]
	for n := range sd {
		names = append(names, n)
	}
	slices.Sort(names)

	size := headerSize(len(names))
	for _, n := range names {
		t := sd[n]
		ts, ok := tensorSize(n, dtype, t.Dims(), t.Dim)
		if !ok {
			// Mirror the reader's validation: emitting a shape the
			// decoder rejects would turn an impossible tensor into an
			// undecodable slot. (tensor constructors already forbid
			// non-positive dims, so this is pure defence in depth.)
			return nil, fmt.Errorf("codec: tensor %q has non-positive dimension in shape %v", n, t.Shape())
		}
		size += ts
	}
	if cap(dst)-len(dst) < size {
		// make (unlike append) allocates exactly the requested capacity.
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}

	dst = append(dst, containerMagic[:]...)
	dst = append(dst, containerVersion)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		t := sd[n]
		dst = binary.AppendUvarint(dst, uint64(len(n)))
		dst = append(dst, n...)
		dst = append(dst, dtype)
		dst = binary.AppendUvarint(dst, uint64(t.Dims()))
		for d := 0; d < t.Dims(); d++ {
			dst = binary.AppendUvarint(dst, uint64(t.Dim(d)))
		}
		data := t.Data()
		pl, _ := payloadLen(dtype, len(data))
		out := dst[len(dst) : len(dst)+pl]
		dst = dst[:len(dst)+pl]
		switch dtype {
		case dtFloat64:
			for i, v := range data {
				binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
			}
		case dtFloat16:
			for i, v := range data {
				binary.LittleEndian.PutUint16(out[2*i:], halfFromFloat64(v))
			}
		case dtInt8:
			putInt8Tensor(out, data)
		}
	}
	return dst, nil
}

// putInt8Tensor writes the per-tensor affine header (offset, step) and
// one quantised byte per element into out (len 16 + len(data)). The grid
// spans [min, max] of the tensor with 256 levels: step = (max−min)/255,
// quantised q = round((v−offset)/step), decoded v′ = offset + q·step, so
// the worst-case error is step/2. Decoded values never fall below the
// tensor's minimum (q·step is non-negative), so a non-negative tensor can
// never decode to a negative value; the top of the range may overshoot
// the maximum by one rounding ulp.
func putInt8Tensor(out []byte, data []float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(data) == 0 {
		lo, hi = 0, 0
	}
	// Saturate infinite bounds to the float64 range: an infinite offset
	// or step would decode every element of the tensor — finite ones
	// included — to NaN. Mirrors the float16 codec's saturating overflow
	// policy: ±Inf elements land on the grid's end levels and decode to
	// ±MaxFloat64.
	if math.IsInf(lo, 0) {
		lo = math.Copysign(math.MaxFloat64, lo)
	}
	if math.IsInf(hi, 0) {
		hi = math.Copysign(math.MaxFloat64, hi)
	}
	step := (hi - lo) / 255
	if math.IsInf(step, 0) {
		// The range itself overflows float64 (e.g. ±1e308): divide before
		// subtracting. The quantised grid is unchanged up to rounding.
		step = hi/255 - lo/255
	}
	binary.LittleEndian.PutUint64(out, math.Float64bits(lo))
	binary.LittleEndian.PutUint64(out[8:], math.Float64bits(step))
	q := out[16:]
	for i, v := range data {
		q[i] = quantise(v, lo, step)
	}
}

// quantise maps v onto the affine grid (offset lo, step), clamped to
// [0, 255]. A zero step (an all-equal or empty tensor) maps everything to
// level 0, which decodes back to lo exactly.
func quantise(v, lo, step float64) byte {
	if step == 0 {
		return 0
	}
	q := (v - lo) / step
	if math.IsInf(q, 0) || math.IsNaN(q) {
		// v−lo overflowed: v sits at the far end of an extreme range.
		q = (v / step) - (lo / step)
	}
	q = math.Round(q)
	if math.IsNaN(q) {
		// A NaN input has no image on the grid; its quantisation is
		// documented as meaningless, but it must still be deterministic —
		// byte(NaN) is implementation-specific in Go, which would break
		// cross-platform byte-identical fingerprints.
		return 0
	}
	if q <= 0 {
		return 0
	}
	if q >= 255 {
		return 255
	}
	return byte(q)
}

// entry is one tensor's header as surfaced by container iteration. shape
// aliases the walk's scratch and is only valid during the callback.
type entry struct {
	name    string
	dtype   byte
	shape   []int
	numel   int
	payload []byte
}

// maxRank bounds a stored tensor's rank.
const maxRank = 16

// walkContainer validates the container structure — magic, version,
// name/shape headers, exact payload lengths, no duplicate names, no
// trailing bytes — and calls fn once per tensor in stored order. It does
// not materialise element values; decoding is the caller's choice.
func walkContainer(b []byte, fn func(e entry) error) error {
	if len(b) < len(containerMagic)+1 {
		return fmt.Errorf("codec: container truncated (%d bytes)", len(b))
	}
	if string(b[:4]) != string(containerMagic[:]) {
		return fmt.Errorf("codec: not a state container (bad magic %q)", b[:4])
	}
	if v := b[4]; v != containerVersion {
		return fmt.Errorf("codec: unsupported container version %d (this build reads version %d)", v, containerVersion)
	}
	rest := b[5:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("codec: corrupt container: bad tensor count")
	}
	rest = rest[n:]
	// Cap the size hint: count is unvalidated input, and a tiny corrupt
	// payload must not be able to demand a huge allocation up front.
	seen := make(map[string]bool, min(count, 1024))
	var shapeBuf [maxRank]int
	for i := uint64(0); i < count; i++ {
		nameLen, n := binary.Uvarint(rest)
		if n <= 0 || nameLen > uint64(len(rest[n:])) {
			return fmt.Errorf("codec: corrupt container: bad name length in tensor %d", i)
		}
		rest = rest[n:]
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		if seen[name] {
			return fmt.Errorf("codec: corrupt container: duplicate tensor %q", name)
		}
		seen[name] = true
		if len(rest) == 0 {
			return fmt.Errorf("codec: corrupt container: missing dtype for %q", name)
		}
		dtype := rest[0]
		rest = rest[1:]
		ndims, n := binary.Uvarint(rest)
		if n <= 0 || ndims == 0 || ndims > maxRank {
			return fmt.Errorf("codec: corrupt container: bad rank for %q", name)
		}
		rest = rest[n:]
		shape := shapeBuf[:ndims]
		numel := 1
		for d := range shape {
			dim, n := binary.Uvarint(rest)
			if n <= 0 || dim == 0 || dim > maxDim {
				return fmt.Errorf("codec: corrupt container: bad shape for %q", name)
			}
			rest = rest[n:]
			shape[d] = int(dim)
			// Check before multiplying: a product of per-dim-valid sizes
			// can overflow int and wrap past a post-hoc bound.
			if numel > maxDim/int(dim) {
				return fmt.Errorf("codec: corrupt container: %q has too many elements", name)
			}
			numel *= int(dim)
		}
		pl, ok := payloadLen(dtype, numel)
		if !ok {
			return fmt.Errorf("codec: corrupt container: unknown dtype %d for %q", dtype, name)
		}
		if pl > len(rest) {
			return fmt.Errorf("codec: corrupt container: %q payload truncated (%d of %d bytes)", name, len(rest), pl)
		}
		if err := fn(entry{name: name, dtype: dtype, shape: shape, numel: numel, payload: rest[:pl]}); err != nil {
			return err
		}
		rest = rest[pl:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("codec: corrupt container: %d trailing bytes", len(rest))
	}
	return nil
}

// decodePayload expands a tensor payload into dst (len(dst) = numel).
func decodePayload(e entry, dst []float64) {
	switch e.dtype {
	case dtFloat64:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(e.payload[8*i:]))
		}
	case dtFloat16:
		for i := range dst {
			dst[i] = halfToFloat64(binary.LittleEndian.Uint16(e.payload[2*i:]))
		}
	case dtInt8:
		lo := math.Float64frombits(binary.LittleEndian.Uint64(e.payload))
		step := math.Float64frombits(binary.LittleEndian.Uint64(e.payload[8:]))
		q := e.payload[16:]
		for i := range dst {
			v := lo + float64(q[i])*step
			if math.IsInf(v, 0) {
				// q·step overflowed even though the grid point itself is
				// representable (extreme tensor ranges): add in halves.
				h := float64(q[i]) * (step / 2)
				v = lo + h + h
			}
			dst[i] = v
		}
	}
}

// Decode parses a container into a freshly allocated state dict. It
// accepts any container regardless of which codec wrote it.
func Decode(b []byte) (nn.StateDict, error) {
	sd := make(nn.StateDict)
	err := walkContainer(b, func(e entry) error {
		data := make([]float64, e.numel)
		decodePayload(e, data)
		sd[e.name] = tensor.FromSlice(data, e.shape...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sd, nil
}

// DecodeInto parses a container into dst's existing tensors, with no
// intermediate state dict. The container must hold exactly dst's names
// with matching element counts (shapes may differ in rank, mirroring the
// reshaped-copy semantics of tensor.CopyFrom), so drifted architectures
// fail loudly. It is all-or-nothing: the whole container is validated
// against dst before the first element is written, so a rejected
// container — truncated, wrong layout, duplicate name — leaves dst
// untouched.
func DecodeInto(b []byte, dst nn.StateDict) error {
	// Every valid container has exactly len(dst) distinct tensors, which
	// bounds the pending list whatever count the header claims.
	pending := make([]entry, 0, len(dst))
	err := walkContainer(b, func(e entry) error {
		t, ok := dst[e.name]
		if !ok {
			return fmt.Errorf("codec: container tensor %q not in destination state", e.name)
		}
		if t.Len() != e.numel {
			return fmt.Errorf("codec: tensor %q length mismatch: container has %d elements, destination %d", e.name, e.numel, t.Len())
		}
		e.shape = nil // scratch-backed; the destination keeps its own shape
		pending = append(pending, e)
		return nil
	})
	if err != nil {
		return err
	}
	if len(pending) != len(dst) {
		return fmt.Errorf("codec: container holds %d of the destination's %d tensors", len(pending), len(dst))
	}
	for _, e := range pending {
		decodePayload(e, dst[e.name].Data())
	}
	return nil
}

// LayoutEntry describes one tensor of a container without decoding its
// elements: the validation currency of quantised replica slots.
type LayoutEntry struct {
	Name  string
	Numel int
}

// Layout validates a container's structure and returns the per-tensor
// names and element counts in stored (sorted-name) order. It is the cheap
// pre-flight check used before adopting a payload as a replica slot: the
// payload bytes can then be stored verbatim, with element decoding
// deferred to the next checkout.
func Layout(b []byte) ([]LayoutEntry, error) {
	var out []LayoutEntry
	err := walkContainer(b, func(e entry) error {
		out = append(out, LayoutEntry{Name: e.name, Numel: e.numel})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
