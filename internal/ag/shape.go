package ag

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Reshape returns a Variable viewing x's data under a new shape. Gradients
// are reshaped back on the way down. Both view headers come from the
// arena, so reshapes are allocation-free on warmed-up steps. The backward
// reads no value; the view shares x's storage, so pinning either pins
// both (Variable.base).
func Reshape(x *Variable, shape ...int) *Variable {
	ar := arenaOf(x)
	out := ar.T.View(x.value, shape...)
	var v *Variable
	if !x.requiresGrad {
		v = constIn(ar, out)
	} else {
		v = record(ar, out, reshapeBack, x)
	}
	v.base = x
	if x.base != nil {
		v.base = x.base
	}
	return v
}

// reshapeBack views the gradient under the parent's shape — which is the
// parent value's own (stable within the step) shape, so no state needs
// capturing.
func reshapeBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	if !x.requiresGrad {
		return
	}
	x.accum(v.ar.T.ViewLike(g, x.value))
}

// Flatten reshapes (N, ...) to (N, rest).
func Flatten(x *Variable) *Variable {
	dims := x.value.Dims()
	if dims < 2 {
		panic(fmt.Sprintf("ag: Flatten wants at least 2 dims, got %v", x.Shape()))
	}
	rest := 1
	for i := 1; i < dims; i++ {
		rest *= x.value.Dim(i)
	}
	return Reshape(x, x.value.Dim(0), rest)
}

// ConcatChannels concatenates two (N,C,H,W) Variables along the channel
// dimension; spatial dimensions and batch must match.
func ConcatChannels(a, b *Variable) *Variable {
	as, bs := a.value.Shape(), b.value.Shape()
	if len(as) != 4 || len(bs) != 4 || as[0] != bs[0] || as[2] != bs[2] || as[3] != bs[3] {
		panic(fmt.Sprintf("ag: ConcatChannels shape mismatch: %v vs %v", as, bs))
	}
	n, ca, cb, h, w := as[0], as[1], bs[1], as[2], as[3]
	sp := h * w
	ar := arenaOf(a, b)
	out := ar.T.NewRaw(n, ca+cb, h, w)
	ad, bd, od := a.value.Data(), b.value.Data(), out.Data()
	for s := 0; s < n; s++ {
		copy(od[s*(ca+cb)*sp:], ad[s*ca*sp:(s+1)*ca*sp])
		copy(od[(s*(ca+cb)+ca)*sp:], bd[s*cb*sp:(s+1)*cb*sp])
	}
	if !anyRequires(a, b) {
		return constIn(ar, out)
	}
	return record(ar, out, concatChannelsBack, a, b) // reads no value
}

// concatChannelsBack splits the output gradient back onto the two inputs;
// every dimension is recoverable from the parents' shapes. Each input
// element receives exactly one slice of the output gradient, so both
// halves accumulate straight into their sinks.
func concatChannelsBack(v *Variable, g *tensor.Tensor) {
	a, b := v.parents[0], v.parents[1]
	n, ca, cb := a.value.Dim(0), a.value.Dim(1), b.value.Dim(1)
	sp := a.value.Dim(2) * a.value.Dim(3)
	gd := g.Data()
	if sink := a.gradSink(); sink != nil {
		dd := sink.Data()
		for s := 0; s < n; s++ {
			src := gd[s*(ca+cb)*sp : s*(ca+cb)*sp+ca*sp]
			dst := dd[s*ca*sp : (s+1)*ca*sp]
			for i, val := range src {
				dst[i] += val
			}
		}
	}
	if sink := b.gradSink(); sink != nil {
		dd := sink.Data()
		for s := 0; s < n; s++ {
			src := gd[(s*(ca+cb)+ca)*sp : (s*(ca+cb)+ca)*sp+cb*sp]
			dst := dd[s*cb*sp : (s+1)*cb*sp]
			for i, val := range src {
				dst[i] += val
			}
		}
	}
}

// SplitChannels splits an (N,C,H,W) Variable into the first c1 channels and
// the remaining C-c1 channels (the "channel split" of ShuffleNetV2).
func SplitChannels(x *Variable, c1 int) (*Variable, *Variable) {
	s := x.value.Shape()
	if len(s) != 4 || c1 <= 0 || c1 >= s[1] {
		panic(fmt.Sprintf("ag: SplitChannels(%d) invalid for shape %v", c1, s))
	}
	n, c, h, w := s[0], s[1], s[2], s[3]
	c2 := c - c1
	sp := h * w
	ar := arenaOf(x)
	fa := ar.T.NewRaw(n, c1, h, w)
	fb := ar.T.NewRaw(n, c2, h, w)
	xd := x.value.Data()
	for smp := 0; smp < n; smp++ {
		copy(fa.Data()[smp*c1*sp:(smp+1)*c1*sp], xd[smp*c*sp:])
		copy(fb.Data()[smp*c2*sp:(smp+1)*c2*sp], xd[(smp*c+c1)*sp:])
	}
	if !x.requiresGrad {
		return constIn(ar, fa), constIn(ar, fb)
	}
	// Both halves scatter into x independently, each into its own channel
	// region (the offset rides in aux0; the region width is the half's own
	// channel count). Each x element receives at most one contribution per
	// half, so the halves accumulate straight into x's gradient buffer.
	mk := func(val *tensor.Tensor, chanOff int) *Variable {
		node := record(ar, val, splitChannelsBack, x) // reads no value
		node.aux0 = float64(chanOff)
		return node
	}
	return mk(fa, 0), mk(fb, c1)
}

// splitChannelsBack scatters one half's gradient into its channel region
// of the input.
func splitChannelsBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	n, c := x.value.Dim(0), x.value.Dim(1)
	sp := x.value.Dim(2) * x.value.Dim(3)
	nch := v.value.Dim(1)
	chanOff := int(v.aux0)
	dd := sink.Data()
	gd := g.Data()
	for smp := 0; smp < n; smp++ {
		src := gd[smp*nch*sp : (smp+1)*nch*sp]
		dst := dd[(smp*c+chanOff)*sp : (smp*c+chanOff)*sp+nch*sp]
		for i, val := range src {
			dst[i] += val
		}
	}
}

// ChannelShuffle permutes channels of an (N,C,H,W) Variable with the
// ShuffleNet interleave: C = groups*k, channel (g,i) moves to (i,g).
func ChannelShuffle(x *Variable, groups int) *Variable {
	s := x.value.Shape()
	if len(s) != 4 || s[1]%groups != 0 {
		panic(fmt.Sprintf("ag: ChannelShuffle groups %d invalid for shape %v", groups, s))
	}
	n, c, h, w := s[0], s[1], s[2], s[3]
	k := c / groups
	sp := h * w
	ar := arenaOf(x)
	perm := ar.T.Ints(c) // perm[dst] = src
	for g := 0; g < groups; g++ {
		for i := 0; i < k; i++ {
			perm[i*groups+g] = g*k + i
		}
	}
	out := ar.T.NewRaw(n, c, h, w)
	xd, od := x.value.Data(), out.Data()
	for smp := 0; smp < n; smp++ {
		for dst, src := range perm {
			copy(od[(smp*c+dst)*sp:(smp*c+dst+1)*sp], xd[(smp*c+src)*sp:(smp*c+src+1)*sp])
		}
	}
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	node := record(ar, out, channelShuffleBack, x) // reads the permutation alone
	node.auxI = perm
	return node
}

// channelShuffleBack routes each output-gradient channel back to its
// source channel via the permutation saved in auxI. A permutation: each
// input element receives exactly one output gradient element, accumulated
// directly.
func channelShuffleBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	n, c := x.value.Dim(0), x.value.Dim(1)
	sp := x.value.Dim(2) * x.value.Dim(3)
	perm := v.auxI
	dd := sink.Data()
	gd := g.Data()
	for smp := 0; smp < n; smp++ {
		for dst, src := range perm {
			sp0 := dd[(smp*c+src)*sp : (smp*c+src+1)*sp]
			gp := gd[(smp*c+dst)*sp : (smp*c+dst+1)*sp]
			for i, val := range gp {
				sp0[i] += val
			}
		}
	}
}

// Upsample2x doubles the spatial dimensions of an (N,C,H,W) Variable by
// nearest-neighbour replication (used by the generator's decoder).
func Upsample2x(x *Variable) *Variable {
	if x.value.Dims() != 4 {
		panic(fmt.Sprintf("ag: Upsample2x wants (N,C,H,W), got %v", x.Shape()))
	}
	n, c, h, w := x.value.Dim(0), x.value.Dim(1), x.value.Dim(2), x.value.Dim(3)
	ar := arenaOf(x)
	out := ar.T.NewRaw(n, c, 2*h, 2*w)
	xd, od := x.value.Data(), out.Data()
	for sc := 0; sc < n*c; sc++ {
		src := xd[sc*h*w : (sc+1)*h*w]
		dst := od[sc*4*h*w : (sc+1)*4*h*w]
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				v := src[y*w+xx]
				dst[(2*y)*(2*w)+2*xx] = v
				dst[(2*y)*(2*w)+2*xx+1] = v
				dst[(2*y+1)*(2*w)+2*xx] = v
				dst[(2*y+1)*(2*w)+2*xx+1] = v
			}
		}
	}
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	return record(ar, out, upsample2xBack, x) // reads no value
}

// upsample2xBack sums each 2×2 replication block back onto its source
// element.
func upsample2xBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	n, c := x.value.Dim(0), x.value.Dim(1)
	h, w := x.value.Dim(2), x.value.Dim(3)
	gd, dd := g.Data(), sink.Data()
	for sc := 0; sc < n*c; sc++ {
		src := gd[sc*4*h*w : (sc+1)*4*h*w]
		dst := dd[sc*h*w : (sc+1)*h*w]
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				dst[y*w+xx] += src[(2*y)*(2*w)+2*xx] +
					src[(2*y)*(2*w)+2*xx+1] +
					src[(2*y+1)*(2*w)+2*xx] +
					src[(2*y+1)*(2*w)+2*xx+1]
			}
		}
	}
}
