// Package data provides the deterministic synthetic image datasets that
// stand in for MNIST, KMNIST, FASHION-MNIST, CIFAR-10, CIFAR-100 and SVHN
// in this offline reproduction: the repository has no external
// dependencies and downloads nothing (README.md, introduction).
//
// Each dataset family draws one prototype pattern per class — a mixture of
// Gaussian blobs plus an oriented sinusoidal grating, with family-specific
// texture statistics — and then renders every sample as a shifted,
// contrast-jittered, noisy copy of its class prototype. The result is a
// non-trivially learnable classification task with the label structure the
// federated partitioners need, generated reproducibly from a seed.
package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Family selects the texture statistics of a synthetic dataset.
type Family int

// Families mirror the datasets of the paper's evaluation.
const (
	// FamilyDigits is the MNIST stand-in: sparse dark background, few
	// high-contrast blobs.
	FamilyDigits Family = iota + 1
	// FamilyGlyphs is the KMNIST stand-in: denser strokes, higher
	// frequency texture.
	FamilyGlyphs
	// FamilyApparel is the FASHION-MNIST stand-in: large filled blocks.
	FamilyApparel
	// FamilyObjects is the CIFAR stand-in: 3-channel colored blobs over a
	// smooth background gradient.
	FamilyObjects
	// FamilyStreet is the SVHN stand-in: digit-like foreground over
	// high-variance colored backgrounds, giving it markedly different
	// statistics from FamilyObjects.
	FamilyStreet
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyDigits:
		return "digits"
	case FamilyGlyphs:
		return "glyphs"
	case FamilyApparel:
		return "apparel"
	case FamilyObjects:
		return "objects"
	case FamilyStreet:
		return "street"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Config describes a synthetic dataset.
type Config struct {
	Name    string
	Family  Family
	Classes int
	C, H, W int
	// TrainPerClass and TestPerClass set the split sizes.
	TrainPerClass int
	TestPerClass  int
	// Seed drives every random choice; equal configs yield equal datasets.
	Seed uint64
	// NoiseStd is the per-pixel Gaussian noise; defaults to 0.15.
	NoiseStd float64
	// MaxShift is the augmentation translation range in pixels; defaults
	// to 2.
	MaxShift int
}

// Dataset is a labelled image dataset split into train and test
// partitions. The test split is held rendered, since evaluation reads all
// of it. A training sample is held as the generator state its render
// starts from, and every gather renders it again: the pixels are a pure
// function of that state, so the split costs 16 bytes and a label per
// sample rather than the sample itself.
type Dataset struct {
	Name    string
	Classes int
	C, H, W int

	TrainY []int
	TestX  *tensor.Tensor // (Ntest, C, H, W)
	TestY  []int

	cfg            Config // the render parameters, defaults applied
	protos, colors [][]float64
	trainAt        []pcgState // trainAt[i]: where training sample i's render starts
}

// pcgState is a rand.PCG state, as (*rand.PCG).Seed restores it.
type pcgState struct{ hi, lo uint64 }

// stateOf reads p's state.
func stateOf(p *rand.PCG) pcgState {
	var buf [20]byte
	// The binary form is "pcg:" and the big-endian hi and lo words;
	// AppendBinary never fails.
	b, _ := p.AppendBinary(buf[:0])
	return pcgState{binary.BigEndian.Uint64(b[4:12]), binary.BigEndian.Uint64(b[12:20])}
}

// Make renders the dataset described by cfg.
func Make(cfg Config) (*Dataset, error) {
	if cfg.Classes < 2 || cfg.C <= 0 || cfg.H <= 0 || cfg.W <= 0 {
		return nil, fmt.Errorf("data: invalid config %+v", cfg)
	}
	if cfg.TrainPerClass <= 0 || cfg.TestPerClass <= 0 {
		return nil, fmt.Errorf("data: per-class sizes must be positive, got train=%d test=%d", cfg.TrainPerClass, cfg.TestPerClass)
	}
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 0.15
	}
	if cfg.MaxShift == 0 {
		cfg.MaxShift = 2
	}
	return build(cfg, tensor.NewPCG(cfg.Seed)), nil
}

// build draws the dataset cfg describes from pcg, leaving pcg where the
// last draw left it.
func build(cfg Config, pcg *rand.PCG) *Dataset {
	rng := rand.New(pcg)
	ds := &Dataset{Name: cfg.Name, Classes: cfg.Classes, C: cfg.C, H: cfg.H, W: cfg.W, cfg: cfg,
		protos: make([][]float64, cfg.Classes), colors: make([][]float64, cfg.Classes)}
	for cl := range ds.protos {
		ds.protos[cl] = prototype(cfg.Family, cfg.C, cfg.H, cfg.W, rng)
		ds.colors[cl] = classColor(cfg.C, rng)
	}
	ds.trainAt, ds.TrainY = ds.record(cfg.TrainPerClass, pcg, rng)
	testAt, testY := ds.record(cfg.TestPerClass, pcg, rng)
	ds.TestX = tensor.New(len(testY), cfg.C, cfg.H, cfg.W)
	ds.TestY = testY
	px := cfg.C * cfg.H * cfg.W
	xd := ds.TestX.Data()
	replay := new(rand.PCG)
	replayRng := rand.New(replay)
	for i, at := range testAt {
		ds.renderAt(at, testY[i], xd[i*px:(i+1)*px], replay, replayRng)
	}
	return ds
}

// MustMake is Make for static configs.
func MustMake(cfg Config) *Dataset {
	ds, err := Make(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

// record draws perClass samples of every class, interleaved, through one
// scratch buffer, and returns the state each sample's render starts from
// and its class, shuffled so contiguous index ranges are class-balanced
// and partitioners see no ordering artifacts: sample dst is the one drawn
// perm[dst]-th.
func (d *Dataset) record(perClass int, pcg *rand.PCG, rng *rand.Rand) ([]pcgState, []int) {
	n := perClass * d.Classes
	drawn := make([]pcgState, n)
	scratch := make([]float64, d.C*d.H*d.W)
	for i := range drawn {
		drawn[i] = stateOf(pcg)
		cl := i % d.Classes
		renderSample(d.cfg, d.protos[cl], d.colors[cl], scratch, rng)
	}
	at := make([]pcgState, n)
	y := make([]int, n)
	for dst, src := range rng.Perm(n) {
		at[dst], y[dst] = drawn[src], src%d.Classes
	}
	return at, y
}

// renderAt renders into dst the sample of class cl whose render starts at
// state at, drawing through rng, whose source is pcg.
func (d *Dataset) renderAt(at pcgState, cl int, dst []float64, pcg *rand.PCG, rng *rand.Rand) {
	pcg.Seed(at.hi, at.lo)
	renderSample(d.cfg, d.protos[cl], d.colors[cl], dst, rng)
}

// HeldBytes returns the bytes the dataset holds: the training split's
// states and labels, the rendered test split and its labels, and the
// class prototypes and colors.
func (d *Dataset) HeldBytes() int64 {
	n := 16*len(d.trainAt) + 8*(len(d.TrainY)+len(d.TestX.Data())+len(d.TestY))
	for cl := range d.protos {
		n += 8 * (len(d.protos[cl]) + len(d.colors[cl]))
	}
	return int64(n)
}

// renderSample writes one augmented view of the class prototype into dst.
func renderSample(cfg Config, proto, color []float64, dst []float64, rng *rand.Rand) {
	h, w, c := cfg.H, cfg.W, cfg.C
	dx := rng.IntN(2*cfg.MaxShift+1) - cfg.MaxShift
	dy := rng.IntN(2*cfg.MaxShift+1) - cfg.MaxShift
	contrast := 0.7 + 0.6*rng.Float64()

	// Street family: draw a fresh high-variance colored background per
	// sample into dst, blended under the foreground below; other families
	// use the prototype's own background.
	street := cfg.Family == FamilyStreet
	if street {
		streetBackground(dst, c, h, w, rng)
	}

	for ch := 0; ch < c; ch++ {
		gain := contrast
		if len(color) > ch {
			gain *= color[ch]
		}
		for yy := 0; yy < h; yy++ {
			sy := yy - dy
			for xx := 0; xx < w; xx++ {
				sx := xx - dx
				v := 0.0
				if sy >= 0 && sy < h && sx >= 0 && sx < w {
					v = proto[sy*w+sx] // prototype is a single plane
				}
				i := ch*h*w + yy*w + xx
				out := gain * v
				if street {
					out = 0.6*out + dst[i]
				}
				out += cfg.NoiseStd * rng.NormFloat64()
				dst[i] = clamp(out, -1, 1)
			}
		}
	}
}

// prototype draws a single-plane class pattern with family-specific
// statistics; multi-channel datasets tint it per channel via classColor.
func prototype(f Family, c, h, w int, rng *rand.Rand) []float64 {
	p := make([]float64, h*w)
	var blobs int
	var sigLo, sigHi, gratAmp float64
	switch f {
	case FamilyDigits, FamilyStreet:
		blobs, sigLo, sigHi, gratAmp = 3, 0.06, 0.14, 0.15
	case FamilyGlyphs:
		blobs, sigLo, sigHi, gratAmp = 6, 0.05, 0.10, 0.45
	case FamilyApparel:
		blobs, sigLo, sigHi, gratAmp = 2, 0.18, 0.32, 0.10
	case FamilyObjects:
		blobs, sigLo, sigHi, gratAmp = 4, 0.10, 0.22, 0.25
	default:
		panic(fmt.Sprintf("data: unknown family %v", f))
	}
	fh, fw := float64(h), float64(w)
	for b := 0; b < blobs; b++ {
		cx := (0.2 + 0.6*rng.Float64()) * fw
		cy := (0.2 + 0.6*rng.Float64()) * fh
		sig := (sigLo + (sigHi-sigLo)*rng.Float64()) * fh
		amp := 0.5 + 0.5*rng.Float64()
		if rng.Float64() < 0.3 {
			amp = -amp
		}
		inv := 1 / (2 * sig * sig)
		for yy := 0; yy < h; yy++ {
			for xx := 0; xx < w; xx++ {
				d2 := (float64(xx)-cx)*(float64(xx)-cx) + (float64(yy)-cy)*(float64(yy)-cy)
				p[yy*w+xx] += amp * math.Exp(-d2*inv)
			}
		}
	}
	// Oriented grating adds a texture signature.
	theta := rng.Float64() * math.Pi
	freq := (1 + 2*rng.Float64()) * 2 * math.Pi / fh
	phase := rng.Float64() * 2 * math.Pi
	cosT, sinT := math.Cos(theta), math.Sin(theta)
	for yy := 0; yy < h; yy++ {
		for xx := 0; xx < w; xx++ {
			u := float64(xx)*cosT + float64(yy)*sinT
			p[yy*w+xx] += gratAmp * math.Sin(freq*u+phase)
		}
	}
	// Normalize to roughly unit dynamic range.
	maxAbs := 1e-9
	for _, v := range p {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	for i := range p {
		p[i] /= maxAbs
	}
	return p
}

// classColor draws a per-class channel gain vector (all ones for
// single-channel data).
func classColor(c int, rng *rand.Rand) []float64 {
	col := make([]float64, c)
	for i := range col {
		if c == 1 {
			col[i] = 1
		} else {
			col[i] = 0.4 + 0.6*rng.Float64()
		}
	}
	return col
}

// streetBackground writes the high-variance colored patches of the SVHN
// stand-in into bg.
func streetBackground(bg []float64, c, h, w int, rng *rand.Rand) {
	// Two-tone vertical split at a random column with random colors.
	split := w/4 + rng.IntN(w/2)
	for ch := 0; ch < c; ch++ {
		// Opposite-sign tones guarantee a strong per-sample split.
		left := 0.35 + 0.45*rng.Float64()
		right := -(0.35 + 0.45*rng.Float64())
		if rng.Float64() < 0.5 {
			left, right = right, left
		}
		for yy := 0; yy < h; yy++ {
			for xx := 0; xx < w; xx++ {
				v := left
				if xx >= split {
					v = right
				}
				bg[ch*h*w+yy*w+xx] = v
			}
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
