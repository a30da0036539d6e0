// Package codec implements compact serialisations of nn.StateDict for the
// three places model state lives at scale: resident per-device replica
// slots on the server, simulated (and real) upload/download payloads, and
// checkpoints.
//
// A Codec chooses the per-tensor element encoding on the way in; the
// container format it writes is self-describing (versioned header plus a
// dtype tag per tensor), so the package-level Decode / DecodeInto work on
// any container regardless of which codec produced it. That asymmetry is
// deliberate: a reader never needs configuration to open a payload or a
// checkpoint, and mixed-dtype containers (float64 global model next to
// int8 replicas) are well-formed.
//
// Three codecs are registered:
//
//   - "float64" — the identity encoding: 8 bytes per element, bit-exact
//     round trips (including NaN payloads and signed zeros). Runs using it
//     are byte-identical to the pre-codec dense pipeline.
//   - "float16" — IEEE 754 binary16 with round-to-nearest-even: 2 bytes
//     per element, ~3 decimal digits. Finite values beyond the binary16
//     range saturate to ±65504 instead of overflowing to infinity, since
//     an infinity planted in model state destroys training instantly.
//   - "int8" — per-tensor affine quantisation: 1 byte per element plus a
//     16-byte (offset, step) header per tensor. The worst-case absolute
//     error is half a quantisation step, (max−min)/510 per tensor.
//     Infinite elements saturate to ±MaxFloat64 grid ends (an infinite
//     offset or step would otherwise poison the whole tensor).
//
// Quantised encodings assume NaN-free tensors: a NaN has no meaningful
// image on an affine grid. float16 preserves NaNs; int8 maps them
// deterministically to the grid's bottom level — a meaningless value,
// but the same one on every platform, so byte-identical fingerprints
// survive a diverged model.
package codec

import (
	"fmt"
	"strings"

	"github.com/fedzkt/fedzkt/internal/nn"
)

// Codec encodes a state dict into the container format with a particular
// element encoding. Decoding is a property of the container, not the
// codec — see the package-level Decode and DecodeInto.
// Codec implementations live in this package's registry only (the
// unexported dtype method seals the interface): a codec is a name for
// one of the container format's element encodings, so a new codec means
// a new dtype tag and decoder too.
type Codec interface {
	// Name is the codec's registry name ("float64", "float16", "int8").
	Name() string
	// Width is the nominal wire width of one tensor element in bytes: 8,
	// 2 and 1 for the registered codecs. Traffic accounting multiplies
	// element counts by this width (per-tensor container overhead —
	// names, shapes, quantisation parameters — is excluded by design, so
	// the traffic columns stay a pure element-width account).
	Width() int
	// Append encodes sd into the container format, appending to dst and
	// returning the extended buffer (dst may be nil). Tensors are written
	// in sorted-name order, so encoding is deterministic.
	Append(dst []byte, sd nn.StateDict) ([]byte, error)
	// elemDtype is the container dtype tag this codec writes.
	elemDtype() byte
}

// Registered codec names.
const (
	Float64 = "float64"
	Float16 = "float16"
	Int8    = "int8"
)

// codecImpl is the shared implementation: every registered codec is the
// container writer parameterised by a dtype tag.
type codecImpl struct {
	name  string
	width int
	dtype byte
}

func (c *codecImpl) Name() string    { return c.name }
func (c *codecImpl) Width() int      { return c.width }
func (c *codecImpl) elemDtype() byte { return c.dtype }

func (c *codecImpl) Append(dst []byte, sd nn.StateDict) ([]byte, error) {
	return appendContainer(dst, sd, c.dtype)
}

var registry = map[string]Codec{
	Float64: &codecImpl{name: Float64, width: 8, dtype: dtFloat64},
	Float16: &codecImpl{name: Float16, width: 2, dtype: dtFloat16},
	Int8:    &codecImpl{name: Int8, width: 1, dtype: dtInt8},
}

// Names lists the registered codec names in documentation order.
func Names() []string { return []string{Float64, Float16, Int8} }

// Get resolves a codec by name. The empty string selects the identity
// "float64" codec, so an unset configuration field keeps today's dense
// behaviour.
func Get(name string) (Codec, error) {
	if name == "" {
		name = Float64
	}
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("codec: unknown state codec %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return c, nil
}

// Identity reports whether c is the lossless float64 codec — the one whose
// container of a state decodes to exactly that state, so a caller may
// stand a state in for its container without changing any observable
// value.
func Identity(c Codec) bool { return c.Name() == Float64 }

// Encode is Append into a fresh buffer.
func Encode(c Codec, sd nn.StateDict) ([]byte, error) {
	return c.Append(nil, sd)
}

// Reencode returns payload unchanged when every tensor already uses c's
// element encoding, or a freshly re-encoded container otherwise. The
// bool reports whether a conversion happened. Adopting foreign-dtype
// payloads verbatim (e.g. a float64 checkpoint loaded into an int8
// server) would silently break the invariants the configured codec is
// supposed to provide — the resident-memory bound and the nominal-width
// traffic accounting — so slot installs convert at the boundary instead.
// The uniformity check walks only the container headers; the common
// same-codec case pays no element work.
func Reencode(c Codec, payload []byte) ([]byte, bool, error) {
	want := c.elemDtype()
	uniform := true
	err := walkContainer(payload, func(e entry) error {
		if e.dtype != want {
			uniform = false
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	if uniform {
		return payload, false, nil
	}
	sd, err := Decode(payload)
	if err != nil {
		return nil, false, err
	}
	out, err := Encode(c, sd)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}
