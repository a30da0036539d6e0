package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// randomState builds a deterministic synthetic state dict spanning the
// tensor shapes model state actually contains: matrices, vectors,
// single-element scalars.
func randomState(seed uint64, scale float64) nn.StateDict {
	rng := tensor.NewRand(seed)
	sd := make(nn.StateDict)
	mk := func(name string, shape ...int) {
		t := tensor.New(shape...)
		d := t.Data()
		for i := range d {
			d[i] = (rng.Float64()*2 - 1) * scale
		}
		sd[name] = t
	}
	mk("layer0.weight", 12, 7)
	mk("layer0.bias", 7)
	mk("bn.running_mean", 7)
	mk("scalar", 1)
	mk("conv.weight", 3, 2, 3, 3)
	return sd
}

func maxAbsErr(t *testing.T, a, b nn.StateDict) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("state dict size mismatch: %d vs %d", len(a), len(b))
	}
	worst := 0.0
	for name, w := range a {
		u, ok := b[name]
		if !ok {
			t.Fatalf("tensor %q missing", name)
		}
		if d := tensor.MaxAbsDiff(w, u); d > worst {
			worst = d
		}
	}
	return worst
}

func encode(t *testing.T, name string, sd nn.StateDict) []byte {
	t.Helper()
	c, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(c, sd)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFloat64BitExactRoundTrip: the identity codec must reproduce every
// bit, including signed zeros, denormals, infinities and extreme
// magnitudes.
func TestFloat64BitExactRoundTrip(t *testing.T) {
	sd := randomState(1, 10)
	hard := tensor.FromSlice([]float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 5e-324, math.Pi,
	}, 8)
	sd["hard"] = hard
	got, err := Decode(encode(t, Float64, sd))
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range sd {
		wd, gd := w.Data(), got[name].Data()
		for i := range wd {
			if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
				t.Fatalf("%s[%d]: %v (%x) round-tripped to %v (%x)",
					name, i, wd[i], math.Float64bits(wd[i]), gd[i], math.Float64bits(gd[i]))
			}
		}
	}
}

// TestFloat16BoundedError: float16 round trips stay within the relative
// precision of binary16 for values in its range.
func TestFloat16BoundedError(t *testing.T) {
	sd := randomState(2, 100)
	got, err := Decode(encode(t, Float16, sd))
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range sd {
		wd, gd := w.Data(), got[name].Data()
		for i := range wd {
			bound := math.Max(math.Abs(wd[i])/1024, math.Pow(2, -24))
			if diff := math.Abs(wd[i] - gd[i]); diff > bound {
				t.Fatalf("%s[%d]: %v → %v, error %g > %g", name, i, wd[i], gd[i], diff, bound)
			}
		}
	}
}

// TestFloat16SaturatesOutOfRange: finite values beyond ±65504 clamp to
// the largest finite half rather than becoming infinities.
func TestFloat16SaturatesOutOfRange(t *testing.T) {
	sd := nn.StateDict{"w": tensor.FromSlice([]float64{1e5, -1e300, 7e4, 65504}, 4)}
	got, err := Decode(encode(t, Float16, sd))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{65504, -65504, 65504, 65504}
	for i, v := range got["w"].Data() {
		if v != want[i] {
			t.Fatalf("element %d: got %v, want %v", i, v, want[i])
		}
	}
}

// TestInt8BoundedError is the quantisation property test: for random
// tensors the worst-case reconstruction error is half a step,
// (max−min)/510 per tensor, and decoded values never leave the original
// range.
func TestInt8BoundedError(t *testing.T) {
	for seed := uint64(3); seed < 13; seed++ {
		sd := randomState(seed, float64(seed)*3)
		got, err := Decode(encode(t, Int8, sd))
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range sd {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range w.Data() {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			bound := (hi - lo) / 510 * (1 + 1e-9)
			wd, gd := w.Data(), got[name].Data()
			for i := range wd {
				if diff := math.Abs(wd[i] - gd[i]); diff > bound {
					t.Fatalf("seed %d %s[%d]: %v → %v, error %g > step/2 %g", seed, name, i, wd[i], gd[i], diff, bound)
				}
				// The lower bound is exact (offset + non-negative); the top
				// of the grid may overshoot the maximum by a rounding ulp.
				if gd[i] < lo || gd[i] > hi+math.Abs(hi)*1e-12 {
					t.Fatalf("seed %d %s[%d]: decoded %v outside original range [%v, %v]", seed, name, i, gd[i], lo, hi)
				}
			}
		}
	}
}

// TestInt8AllEqualExact: a constant tensor (including single-element
// tensors) has a zero-width grid and must reconstruct exactly.
func TestInt8AllEqualExact(t *testing.T) {
	sd := nn.StateDict{
		"c": tensor.Full(-3.75, 4, 4),
		"s": tensor.FromSlice([]float64{42.5}, 1),
		"z": tensor.New(3), // all zeros
	}
	got, err := Decode(encode(t, Int8, sd))
	if err != nil {
		t.Fatal(err)
	}
	if err := maybeExact(sd, got); err != "" {
		t.Fatal(err)
	}
}

func maybeExact(a, b nn.StateDict) string {
	for name, w := range a {
		if d := tensor.MaxAbsDiff(w, b[name]); d != 0 {
			return "tensor " + name + " not reconstructed exactly"
		}
	}
	return ""
}

// TestInt8NaNFreeExtremes: tensors spanning nearly the whole float64
// range must stay finite and within the half-step bound — the (max−min)
// overflow path.
func TestInt8NaNFreeExtremes(t *testing.T) {
	sd := nn.StateDict{"w": tensor.FromSlice([]float64{-1e308, -1, 0, 2.5, 1e308}, 5)}
	got, err := Decode(encode(t, Int8, sd))
	if err != nil {
		t.Fatal(err)
	}
	step := 1e308/255 + 1e308/255
	for i, v := range got["w"].Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("element %d decoded to %v", i, v)
		}
		if diff := math.Abs(v - sd["w"].Data()[i]); diff > step {
			t.Fatalf("element %d: error %g exceeds one step %g", i, diff, step)
		}
	}
}

// TestInt8InfinitySaturates: an infinity in a tensor must not poison the
// affine grid — finite elements survive within the step bound and the
// infinities saturate to ±MaxFloat64, mirroring float16's overflow
// policy (an Inf offset or step would otherwise decode the whole tensor
// to NaN).
func TestInt8InfinitySaturates(t *testing.T) {
	sd := nn.StateDict{
		"w":   tensor.FromSlice([]float64{1, 2, 3, math.Inf(1)}, 4),
		"b":   tensor.FromSlice([]float64{math.Inf(-1), -4, 4, math.Inf(1)}, 4),
		"inf": tensor.FromSlice([]float64{math.Inf(1), math.Inf(1)}, 2),
	}
	got, err := Decode(encode(t, Int8, sd))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		for i, v := range g.Data() {
			if math.IsNaN(v) {
				t.Fatalf("%s[%d] decoded to NaN", name, i)
			}
			orig := sd[name].Data()[i]
			if math.IsInf(orig, 0) && math.Abs(v) < math.MaxFloat64/2 {
				t.Fatalf("%s[%d]: infinity decoded to %v, want saturation near ±MaxFloat64", name, i, v)
			}
		}
	}
	// The finite values of "w" sit at the bottom of a grid reaching
	// MaxFloat64, so they decode to the lowest level: exactly lo = 1.
	for i, want := range []float64{1, 1, 1} {
		if v := got["w"].Data()[i]; v != want {
			t.Fatalf("w[%d] decoded to %v, want %v (grid bottom)", i, v, want)
		}
	}
}

// TestInt8NaNDeterministic: quantising a NaN is documented as
// meaningless, but it must be deterministic — it maps to grid level 0
// on every platform (byte(NaN) is implementation-specific in Go), so a
// diverged model cannot break cross-platform byte-identical
// fingerprints.
func TestInt8NaNDeterministic(t *testing.T) {
	sd := nn.StateDict{"w": tensor.FromSlice([]float64{1, math.NaN(), 3}, 3)}
	a := encode(t, Int8, sd)
	b := encode(t, Int8, sd)
	if !bytes.Equal(a, b) {
		t.Fatal("NaN-bearing encodings differ between runs")
	}
	got, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	// Level 0 decodes to the tensor minimum (NaN never participates in
	// the min/max scan, so the grid itself stays finite).
	if v := got["w"].Data()[1]; v != 1 {
		t.Fatalf("NaN quantised to %v, want the grid bottom (1)", v)
	}
}

// TestEmptyStateDict: an empty dict is a legal (if degenerate) payload
// for every codec.
func TestEmptyStateDict(t *testing.T) {
	for _, name := range Names() {
		got, err := Decode(encode(t, name, nn.StateDict{}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 0 {
			t.Fatalf("%s: decoded %d tensors from an empty dict", name, len(got))
		}
	}
}

// TestEncodeDeterministic: two encodings of the same dict are
// byte-identical — map iteration order must never leak into the wire.
func TestEncodeDeterministic(t *testing.T) {
	sd := randomState(7, 5)
	for _, name := range Names() {
		a := encode(t, name, sd)
		b := encode(t, name, sd)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: repeated encodings differ", name)
		}
	}
}

// TestCompressionRatio pins the size story: float16 payloads are ~4× and
// int8 payloads ~8× smaller than float64 on realistically sized tensors.
func TestCompressionRatio(t *testing.T) {
	// Realistically sized tensors: per-tensor container overhead (names,
	// shapes, quantisation parameters) amortises over the elements.
	rng := tensor.NewRand(8)
	w, v := tensor.New(64, 64), tensor.New(64)
	for _, tt := range []*tensor.Tensor{w, v} {
		d := tt.Data()
		for i := range d {
			d[i] = rng.Float64()*2 - 1
		}
	}
	sd := nn.StateDict{"fc.weight": w, "fc.bias": v}
	f64 := len(encode(t, Float64, sd))
	f16 := len(encode(t, Float16, sd))
	i8 := len(encode(t, Int8, sd))
	if ratio := float64(f64) / float64(f16); ratio < 3.5 {
		t.Fatalf("float16 ratio %.2f < 3.5 (%d vs %d bytes)", ratio, f64, f16)
	}
	if ratio := float64(f64) / float64(i8); ratio < 5.5 {
		t.Fatalf("int8 ratio %.2f < 5.5 (%d vs %d bytes)", ratio, f64, i8)
	}
}

func TestDecodeInto(t *testing.T) {
	sd := randomState(9, 2)
	enc := encode(t, Float64, sd)
	dst := sd.Clone()
	for _, tt := range dst {
		tt.Zero()
	}
	if err := DecodeInto(enc, dst); err != nil {
		t.Fatal(err)
	}
	if got := maxAbsErr(t, sd, dst); got != 0 {
		t.Fatalf("DecodeInto drifted by %g", got)
	}

	// Missing destination tensor.
	short := sd.Clone()
	delete(short, "scalar")
	if err := DecodeInto(enc, short); err == nil {
		t.Fatal("want error for container tensor absent from destination")
	}
	// Extra destination tensor.
	extra := sd.Clone()
	extra["ghost"] = tensor.New(2)
	if err := DecodeInto(enc, extra); err == nil {
		t.Fatal("want error for destination tensor absent from container")
	}
	// Length mismatch.
	wrong := sd.Clone()
	wrong["scalar"] = tensor.New(3)
	if err := DecodeInto(enc, wrong); err == nil {
		t.Fatal("want error for element-count mismatch")
	}
}

func TestLayout(t *testing.T) {
	sd := randomState(10, 2)
	entries, err := Layout(encode(t, Int8, sd))
	if err != nil {
		t.Fatal(err)
	}
	names := sd.Names()
	if len(entries) != len(names) {
		t.Fatalf("layout has %d entries, want %d", len(entries), len(names))
	}
	for i, e := range entries {
		if e.Name != names[i] {
			t.Fatalf("entry %d name %q, want %q (sorted order)", i, e.Name, names[i])
		}
		if e.Numel != sd[e.Name].Len() {
			t.Fatalf("entry %q numel %d, want %d", e.Name, e.Numel, sd[e.Name].Len())
		}
	}
}

// TestContainerErrors: corrupt containers fail with clear errors, never
// panics or silent misreads.
func TestContainerErrors(t *testing.T) {
	sd := randomState(11, 1)
	good := encode(t, Float16, sd)

	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short", good[:3]},
		{"bad magic", append([]byte("NOPE"), good[4:]...)},
		{"future version", func() []byte {
			b := bytes.Clone(good)
			b[4] = 99
			return b
		}()},
		{"truncated payload", good[:len(good)-5]},
		{"trailing bytes", append(bytes.Clone(good), 1, 2, 3)},
	}
	for _, c := range cases {
		if _, err := Decode(c.b); err == nil {
			t.Errorf("%s: want decode error", c.name)
		}
	}
}

// TestContainerShapeOverflowRejected: a crafted header whose per-dim
// sizes are each in range but whose product overflows int must be
// rejected, not panic on a negative payload length. Reachable from
// network peers (uploads feed codec.Layout), so this is a hardening
// regression test.
func TestContainerShapeOverflowRejected(t *testing.T) {
	b := append([]byte{}, containerMagic[:]...)
	b = append(b, containerVersion)
	b = binary.AppendUvarint(b, 1)       // one tensor
	b = binary.AppendUvarint(b, 1)       // name length
	b = append(b, 'w', dtFloat64)        // name, dtype
	b = binary.AppendUvarint(b, 2)       // rank 2
	b = binary.AppendUvarint(b, 1<<40)   // dim 0: exactly maxDim
	b = binary.AppendUvarint(b, 1<<23+1) // dim 1: product wraps negative
	if _, err := Layout(b); err == nil {
		t.Fatal("want error for overflowing element count")
	}
	if _, err := Decode(b); err == nil {
		t.Fatal("want error for overflowing element count")
	}
}

// TestReencode: same-dtype payloads pass through untouched (same backing
// bytes, no element work); foreign-dtype payloads convert to the target
// codec's encoding.
func TestReencode(t *testing.T) {
	sd := randomState(12, 3)
	i8, err := Get(Int8)
	if err != nil {
		t.Fatal(err)
	}
	same := encode(t, Int8, sd)
	out, converted, err := Reencode(i8, same)
	if err != nil {
		t.Fatal(err)
	}
	if converted || &out[0] != &same[0] {
		t.Fatal("same-dtype payload was not passed through verbatim")
	}
	foreign := encode(t, Float64, sd)
	out, converted, err = Reencode(i8, foreign)
	if err != nil {
		t.Fatal(err)
	}
	if !converted {
		t.Fatal("foreign-dtype payload was not converted")
	}
	if len(out) >= len(foreign) {
		t.Fatalf("re-encoded int8 payload (%d B) not smaller than the float64 original (%d B)", len(out), len(foreign))
	}
	if !bytes.Equal(out, encode(t, Int8, sd)) {
		t.Fatal("conversion disagrees with directly encoding the decoded values")
	}
	if _, _, err := Reencode(i8, []byte("garbage")); err == nil {
		t.Fatal("want error for a corrupt payload")
	}
}

func TestGet(t *testing.T) {
	for _, name := range append([]string{""}, Names()...) {
		if _, err := Get(name); err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
	}
	if _, err := Get("float8"); err == nil {
		t.Fatal("want error for unknown codec")
	}
	c, err := Get("")
	if err != nil || !Identity(c) {
		t.Fatalf("empty name must resolve to the identity codec (got %v, %v)", c, err)
	}
	widths := map[string]int{Float64: 8, Float16: 2, Int8: 1}
	for name, want := range widths {
		c, _ := Get(name)
		if c.Width() != want {
			t.Fatalf("%s width %d, want %d", name, c.Width(), want)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun with the collector off. The count
// AllocsPerRun reads is the process's, and a collection inside the window
// allocates in the runtime: the semaphore waiter of gcMarkDone, a mark
// worker's node, an M and its g0 when a P is woken to mark. Ten encodes
// of a 0.8 MB container start about three cycles, which can add a whole
// allocation per run. A settled heap and no cycle in the window leave
// only the calls' own allocations.
func allocsPerRun(runs int, f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestEncodeExactSize: the container size is computed from the layout
// before anything is written, so encoding a model state is one
// allocation — the container itself, sized to the byte — for every codec,
// and appending into a buffer with room allocates nothing.
func TestEncodeExactSize(t *testing.T) {
	sd := nn.CaptureState(model.MustBuild("mlp", model.Shape{C: 1, H: 16, W: 16}, 10, tensor.NewRand(3)))
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var enc []byte
		allocs := allocsPerRun(10, func() {
			if enc, err = Encode(c, sd); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: Encode allocates %v times, want 1", name, allocs)
		}
		// Exact, not merely bounded by the varints' worst case.
		if slack := cap(enc) - len(enc); slack != 0 {
			t.Errorf("%s: container has %d spare bytes of capacity (len %d)", name, slack, len(enc))
		}
		if want := sd.Numel() * c.Width(); len(enc) < want || len(enc) > want+64*len(sd) {
			t.Errorf("%s: container is %d bytes for %d payload bytes", name, len(enc), want)
		}
		buf := make([]byte, 0, len(enc))
		if allocs := allocsPerRun(10, func() {
			if _, err := c.Append(buf, sd); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Append into a sized buffer allocates %v times", name, allocs)
		}
		// A prefix the caller already wrote survives the single growth.
		out, err := c.Append([]byte("hdr"), sd)
		if err != nil || string(out[:3]) != "hdr" || !bytes.Equal(out[3:], enc) {
			t.Errorf("%s: appending after a prefix changed the bytes (err %v)", name, err)
		}
	}
}

// TestSizeMatchesAppend: Size, computed from names and shapes alone, is the
// length Append writes, for every architecture in the zoo under every
// codec. A store takes slot buffers of this size; were the two to drift,
// every first write would outgrow its buffer and allocate.
func TestSizeMatchesAppend(t *testing.T) {
	for _, arch := range model.Names() {
		m, err := model.Build(arch, model.Shape{C: 1, H: 16, W: 16}, 10, tensor.NewRand(3))
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		sd := nn.CaptureState(m)
		names := sd.Names()
		shapes := make([][]int, len(names))
		for i, n := range names {
			shapes[i] = sd[n].Shape()
		}
		for _, name := range Names() {
			c, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := c.Append(nil, sd)
			if err != nil {
				t.Fatal(err)
			}
			if got := Size(c, names, shapes); got != len(enc) {
				t.Errorf("%s under %s: Size %d, Append wrote %d bytes", arch, name, got, len(enc))
			}
		}
	}
}

// TestDecodeIntoAllOrNothing: a container that fails validation anywhere
// — even in its last tensor — leaves the destination untouched.
func TestDecodeIntoAllOrNothing(t *testing.T) {
	sd := randomState(13, 2)
	good := encode(t, Int8, sd)
	dup := func() []byte {
		// Two tensors under one name: valid headers, duplicate rejected.
		one := nn.StateDict{"w": tensor.Full(1, 4)}
		b := encode(t, Float64, one)
		body := bytes.Clone(b[6:]) // magic, version, count=1
		out := append(bytes.Clone(b[:5]), 2)
		out = append(out, body...)
		return append(out, body...)
	}()
	cases := map[string][]byte{
		"truncated": good[:len(good)-1],
		"trailing":  append(bytes.Clone(good), 0),
		"duplicate": dup,
	}
	for name, b := range cases {
		dst := sd.Clone()
		if name == "duplicate" {
			dst = nn.StateDict{"w": tensor.Full(7, 4)}
		}
		before := dst.Clone()
		if err := DecodeInto(b, dst); err == nil {
			t.Fatalf("%s: want error", name)
		}
		if got := maxAbsErr(t, before, dst); got != 0 {
			t.Fatalf("%s: rejected container moved the destination by %g", name, got)
		}
	}
}
