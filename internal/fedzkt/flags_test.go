package fedzkt

import (
	"flag"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
)

// notFlags lists the Config fields no flag binds, each with the decision
// behind it. A new Config field must either gain a flag in flags.go or an
// entry here.
var notFlags = map[string]string{
	"GlobalArch":    "every main and experiment runs the one \"global\" architecture",
	"Loss":          "a LossKind, chosen per cell by the loss-ablation experiments",
	"ProbeGradNorm": "Figure 2 instrumentation, switched on by that experiment",
	"ZDim":          "sized in code beside the model zoo by each main and experiment",
	"DeviceLR":      "learning rates are fixed in code by each main and experiment",
	"ServerLR":      "learning rates are fixed in code by each main and experiment",
	"GenLR":         "learning rates are fixed in code by each main and experiment",
	"Momentum":      "optimiser constants are fixed in code by each main and experiment",
	"WeightDecay":   "optimiser constants are fixed in code by each main and experiment",
	"ProxMu":        "the ℓ2-regularisation ablation (Table IV) sets it per cell",
	"EvalEvery":     "derived by each main from its round count",
}

// flagCases gives every flag one non-default value and the field it must
// land in.
var flagCases = []struct {
	flag, value, field string
	want               any
}{
	{"rounds", "7", "Rounds", 7},
	{"local-epochs", "3", "LocalEpochs", 3},
	{"distill-iters", "9", "DistillIters", 9},
	{"student-steps", "4", "StudentSteps", 4},
	{"distill-batch", "12", "DistillBatch", 12},
	{"batch-size", "6", "BatchSize", 6},
	{"active-fraction", "0.5", "ActiveFraction", 0.5},
	{"sample-k", "5", "SampleK", 5},
	{"workers", "3", "Workers", 3},
	{"round-deadline", "2s", "RoundDeadline", 2 * time.Second},
	{"fail-rate", "0.25", "FailureRate", 0.25},
	{"teachers-per-iter", "8", "TeachersPerIter", 8},
	{"pipeline-depth", "2", "PipelineDepth", 2},
	{"replica-store", "spill", "ReplicaStore", "spill"},
	{"shards", "4", "ReplicaShards", 4},
	{"hot-set", "16", "HotSet", 16},
	{"spill-dir", "/tmp/s", "SpillDir", "/tmp/s"},
	{"virtual-devices", "true", "VirtualDevices", true},
	{"eval-devices", "32", "EvalDevices", 32},
	{"state-codec", "int8", "StateCodec", "int8"},
	{"seed", "99", "Seed", uint64(99)},
	{"checkpoint-dir", "/tmp/c", "CheckpointDir", "/tmp/c"},
	{"checkpoint-every", "2", "CheckpointEvery", 2},
	{"keep-checkpoints", "5", "KeepCheckpoints", 5},
	{"resume", "true", "Resume", true},
}

func bound(c *Config) *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.BindFlags(fs)
	c.BindSizingFlags(fs)
	return fs
}

// TestFlagsSetTheirFields parses one non-default value per flag and checks
// that it lands in the named field and in no other.
func TestFlagsSetTheirFields(t *testing.T) {
	for _, tc := range flagCases {
		var c Config
		if err := bound(&c).Parse([]string{"-" + tc.flag + "=" + tc.value}); err != nil {
			t.Errorf("-%s %s: %v", tc.flag, tc.value, err)
			continue
		}
		var want Config
		f := reflect.ValueOf(&want).Elem().FieldByName(tc.field)
		if !f.IsValid() {
			t.Errorf("-%s: Config has no field %s", tc.flag, tc.field)
			continue
		}
		f.Set(reflect.ValueOf(tc.want).Convert(f.Type()))
		if c != want {
			t.Errorf("-%s %s: Config = %+v, want only %s = %v", tc.flag, tc.value, c, tc.field, tc.want)
		}
	}
}

// TestFlagsCoverConfig: every Config field is bound by exactly one flag or
// is listed in notFlags with a reason, and every flag on a fresh FlagSet
// is accounted for in flagCases.
func TestFlagsCoverConfig(t *testing.T) {
	flagsOf := map[string][]string{}
	for _, tc := range flagCases {
		flagsOf[tc.field] = append(flagsOf[tc.field], tc.flag)
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		reason, skipped := notFlags[name]
		switch n := len(flagsOf[name]); {
		case skipped && n > 0:
			t.Errorf("Config.%s is bound by -%s and also listed as not a flag", name, flagsOf[name][0])
		case skipped && reason == "":
			t.Errorf("Config.%s is listed as not a flag without a reason", name)
		case !skipped && n != 1:
			t.Errorf("Config.%s is bound by %d flags %v: bind it once in flags.go or give notFlags the reason it has none", name, n, flagsOf[name])
		}
	}
	for name := range notFlags {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("notFlags names %s, which Config does not have", name)
		}
	}
	cased := map[string]bool{}
	for _, tc := range flagCases {
		cased[tc.flag] = true
	}
	var c Config
	bound(&c).VisitAll(func(f *flag.Flag) {
		if !cased[f.Name] {
			t.Errorf("-%s is bound but has no flagCases entry", f.Name)
		}
		delete(cased, f.Name)
	})
	for name := range cased {
		t.Errorf("flagCases names -%s, which no FlagSet binds", name)
	}
	if got := typ.NumField(); got != 36 {
		t.Errorf("Config has %d fields, want 36: a knob was added or removed without updating this count", got)
	}
}

// TestFlagDefaultsAreTheBoundValues: a main states its defaults by filling
// the Config before binding, and an unset flag leaves them in place.
func TestFlagDefaultsAreTheBoundValues(t *testing.T) {
	c := Config{Rounds: 2, SampleK: 32, FailureRate: 0.05, Seed: 42, ReplicaStore: ReplicaStoreMemory}
	want := c
	fs := bound(&c)
	if err := fs.Parse([]string{"-sample-k", "4"}); err != nil {
		t.Fatal(err)
	}
	want.SampleK = 4
	if c != want {
		t.Fatalf("Config = %+v, want %+v", c, want)
	}
	if got := fs.Lookup("rounds").DefValue; got != "2" {
		t.Fatalf("-rounds default %q, want the bound value 2", got)
	}
}

// TestProcessFlagsStart: a bad chaos spec or an uncreatable profile file
// fails Start with nothing left armed, and stop disarms what Start armed.
func TestProcessFlagsStart(t *testing.T) {
	for _, p := range []ProcessFlags{
		{Chaos: "no-such-site=on:1"},
		{Chaos: "seed=1;crash.round.end=on:99", CPUProfile: t.TempDir() + "/missing/cpu.prof"},
		{Chaos: "seed=1;crash.round.end=on:99", MemProfile: t.TempDir() + "/missing/mem.prof"},
	} {
		if stop, err := p.Start(); err == nil {
			stop()
			t.Errorf("%+v: Start succeeded", p)
		}
		if chaos.Active() != nil {
			t.Fatalf("%+v: a failed Start left the chaos plan armed", p)
		}
	}
	dir := t.TempDir()
	p := ProcessFlags{Chaos: "seed=1;crash.round.end=on:99", CPUProfile: dir + "/cpu.prof", MemProfile: dir + "/mem.prof"}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if chaos.Active() == nil {
		t.Fatal("Start did not arm the chaos plan")
	}
	stop()
	if chaos.Active() != nil {
		t.Fatal("stop left the chaos plan armed")
	}
	for _, name := range []string{p.CPUProfile, p.MemProfile} {
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written: %v", name, err)
		}
	}
}
