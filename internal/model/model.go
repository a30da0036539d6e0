// Package model provides the on-device and server model zoo used in the
// FedZKT evaluation: for the small (1-channel) datasets a CNN, an MLP and
// three LeNet-like models of different capacities; for the CIFAR-like
// (3-channel) datasets ShuffleNetV2-like units at net sizes 0.5/1.0,
// MobileNetV2-like inverted residuals at width multipliers 0.6/0.8, and a
// LeNet — mirroring the paper's Table V (Models A–E). It also provides the
// server's global model and the DCGAN-style generator used for zero-shot
// distillation.
//
// All architectures are scaled to small synthetic images (spatial size
// divisible by 4, default 16×16); the property under test — heterogeneous
// topologies with widely differing parameter counts — is preserved.
package model

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"github.com/fedzkt/fedzkt/internal/nn"
)

// Shape describes network input as channels × height × width.
type Shape struct {
	C, H, W int
}

// Numel returns C*H*W.
func (s Shape) Numel() int { return s.C * s.H * s.W }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// builder constructs a model for the given input shape and class count.
type builder func(in Shape, classes int, rng *rand.Rand) nn.Module

// registry maps spec names to builders. Populated at package init from the
// static table below (never mutated afterwards, so no locking is needed).
var registry = map[string]builder{
	"mlp":            buildMLP,
	"cnn":            buildCNN,
	"lenet-s":        func(in Shape, c int, r *rand.Rand) nn.Module { return buildLeNet(in, c, r, 4, 8, 32) },
	"lenet-m":        func(in Shape, c int, r *rand.Rand) nn.Module { return buildLeNet(in, c, r, 6, 16, 48) },
	"lenet-l":        func(in Shape, c int, r *rand.Rand) nn.Module { return buildLeNet(in, c, r, 8, 24, 64) },
	"lenet":          func(in Shape, c int, r *rand.Rand) nn.Module { return buildLeNet(in, c, r, 6, 16, 48) },
	"shufflenet-0.5": func(in Shape, c int, r *rand.Rand) nn.Module { return buildShuffleNet(in, c, r, 0.5) },
	"shufflenet-1.0": func(in Shape, c int, r *rand.Rand) nn.Module { return buildShuffleNet(in, c, r, 1.0) },
	"mobilenet-0.6":  func(in Shape, c int, r *rand.Rand) nn.Module { return buildMobileNet(in, c, r, 0.6) },
	"mobilenet-0.8":  func(in Shape, c int, r *rand.Rand) nn.Module { return buildMobileNet(in, c, r, 0.8) },
	"global":         buildGlobal,
}

// Build constructs the named architecture. The name must be one of Names().
func Build(name string, in Shape, classes int, rng *rand.Rand) (nn.Module, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown architecture %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	if classes < 2 {
		return nil, fmt.Errorf("model: need at least 2 classes, got %d", classes)
	}
	if in.C <= 0 || in.H < 4 || in.W < 4 || in.H%4 != 0 || in.W%4 != 0 {
		return nil, fmt.Errorf("model: input shape %v must have positive channels and spatial size divisible by 4", in)
	}
	return b(in, classes, rng), nil
}

// Reinit re-seeds m in place to the state Build (or NewGenerator) would
// give a fresh module of the same architecture from rng: the same Glorot
// draws in construction order, zero biases, batch-norm γ/β and running
// statistics at their constants — bit for bit, with no allocation. One
// live module can therefore stand in for any device's seeded initial
// build. Gradients, training mode and trainability are left alone.
func Reinit(m nn.Module, rng *rand.Rand) error {
	r, ok := m.(nn.Reinitialiser)
	if !ok {
		return fmt.Errorf("model: %T cannot be re-seeded in place", m)
	}
	r.Reinit(rng)
	return nil
}

// MustBuild is Build for static specs that cannot fail at runtime.
func MustBuild(name string, in Shape, classes int, rng *rand.Rand) nn.Module {
	m, err := Build(name, in, classes, rng)
	if err != nil {
		panic(err)
	}
	return m
}

// Names lists the registered architectures in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SmallZoo returns the five heterogeneous on-device architectures the paper
// uses for MNIST/KMNIST/FASHION: a CNN, a fully-connected model, and three
// LeNet-like models with different channel sizes and layer counts.
func SmallZoo() []string {
	return []string{"cnn", "mlp", "lenet-s", "lenet-m", "lenet-l"}
}

// CIFARZoo returns the five heterogeneous architectures for CIFAR-10
// matching Table V: Models A–E = ShuffleNetV2(0.5), ShuffleNetV2(1.0),
// MobileNetV2(0.8), MobileNetV2(0.6), LeNet.
func CIFARZoo() []string {
	return []string{"shufflenet-0.5", "shufflenet-1.0", "mobilenet-0.8", "mobilenet-0.6", "lenet"}
}

// ZooFor assigns an architecture from zoo to each of k devices by cycling,
// as in the paper's 10-device configuration (A,B,C,D,E,A,B,...).
func ZooFor(zoo []string, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = zoo[i%len(zoo)]
	}
	return out
}
