package data

// Sizes gives the per-class sample counts for a dataset build.
type Sizes struct {
	TrainPerClass int
	TestPerClass  int
}

// DefaultSizes is the scaled-down default used by tests and the default
// experiment scale: 10 classes × 60 train + 20 test per class.
var DefaultSizes = Sizes{TrainPerClass: 60, TestPerClass: 20}

// specs is the one table of named datasets: what each stand-in looks like
// at the package's native 16×16 size. Seed holds the dataset's seed mix,
// XORed into the caller's seed so equal run seeds still give the six
// datasets different prototypes.
var specs = map[string]Config{
	"synthmnist":    {Family: FamilyDigits, Classes: 10, C: 1, Seed: 0xA1},
	"synthkmnist":   {Family: FamilyGlyphs, Classes: 10, C: 1, Seed: 0xB2},
	"synthfashion":  {Family: FamilyApparel, Classes: 10, C: 1, Seed: 0xC3},
	"synthcifar10":  {Family: FamilyObjects, Classes: 10, C: 3, Seed: 0xD4},
	"synthcifar100": {Family: FamilyObjects, Classes: 100, C: 3, Seed: 0xE5},
	"synthsvhn":     {Family: FamilyStreet, Classes: 10, C: 3, Seed: 0xF6},
}

// Spec returns the named dataset's description — name, family, classes,
// channels, 16×16 images and the seed mix in Seed — for the caller to size
// (TrainPerClass, TestPerClass, H, W) and seed (Seed ^= run seed) before
// Make. Recognised names: synthmnist, synthkmnist, synthfashion,
// synthcifar10, synthcifar100, synthsvhn.
func Spec(name string) (Config, bool) {
	cfg, ok := specs[name]
	cfg.Name, cfg.H, cfg.W = name, 16, 16
	return cfg, ok
}

// ByName builds one of the six named datasets (see Spec) at 16×16.
func ByName(name string, sz Sizes, seed uint64) (*Dataset, bool) {
	cfg, ok := Spec(name)
	if !ok {
		return nil, false
	}
	cfg.TrainPerClass, cfg.TestPerClass = sz.TrainPerClass, sz.TestPerClass
	cfg.Seed ^= seed
	return MustMake(cfg), true
}

// SynthMNIST builds the MNIST stand-in: 1×16×16 digit-like patterns.
func SynthMNIST(sz Sizes, seed uint64) *Dataset {
	ds, _ := ByName("synthmnist", sz, seed)
	return ds
}
