package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// arm parses and activates a plan for the duration of the test.
func arm(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	Activate(p)
	t.Cleanup(Deactivate)
	return p
}

func TestParseGrammar(t *testing.T) {
	p, err := Parse("seed=42; spill.read.err=0.25 ;crash.round.end=on:3;ckpt.write.torn@128=on:1;transport.conn.drop=every:10;transport.conn.stall=after:2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Fatalf("seed = %d, want 42", p.Seed)
	}
	for _, site := range []string{SiteSpillReadErr, SiteCrashRoundEnd, SiteCkptTorn, SiteConnDrop, SiteConnStall} {
		if !p.Armed(site) {
			t.Fatalf("site %s not armed", site)
		}
	}
	if p.Armed(SiteSpillWriteErr) {
		t.Fatal("unarmed site reported armed")
	}

	for _, bad := range []string{
		"no.such.site=0.5",                          // unknown site
		"spill.read.err",                            // not key=value
		"spill.read.err=2.0",                        // probability out of range
		"spill.read.err=NaN",                        // not a probability
		"spill.read.err=on:0",                       // zero count
		"spill.read.err=maybe",                      // unparseable trigger
		"seed=abc",                                  // bad seed
		"ckpt.write.torn@x=on:1",                    // bad argument
		"crash.round.end=on:1;crash.round.end=on:2", // duplicate site
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", bad)
		}
	}
	if _, err := Parse(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
}

func TestDisarmedFastPath(t *testing.T) {
	Deactivate()
	if Fire(SiteSpillReadErr) {
		t.Fatal("fired with no plan armed")
	}
	if err := Err(SiteSpillReadErr, "read"); err != nil {
		t.Fatal("injected error with no plan armed")
	}
	if d := StallFor(SiteConnStall); d != 0 {
		t.Fatal("stalled with no plan armed")
	}
	Crash(SiteCrashRoundEnd) // must not crash
}

func TestCountTriggers(t *testing.T) {
	arm(t, "spill.read.err=on:3;spill.write.err=every:2;transport.conn.drop=after:4")
	var onFires, everyFires, afterFires []int
	for i := 1; i <= 8; i++ {
		if Fire(SiteSpillReadErr) {
			onFires = append(onFires, i)
		}
		if Fire(SiteSpillWriteErr) {
			everyFires = append(everyFires, i)
		}
		if Fire(SiteConnDrop) {
			afterFires = append(afterFires, i)
		}
	}
	if len(onFires) != 1 || onFires[0] != 3 {
		t.Fatalf("on:3 fired at %v, want exactly [3]", onFires)
	}
	if want := []int{2, 4, 6, 8}; len(everyFires) != 4 || everyFires[0] != 2 || everyFires[3] != 8 {
		t.Fatalf("every:2 fired at %v, want %v", everyFires, want)
	}
	if len(afterFires) != 4 || afterFires[0] != 5 {
		t.Fatalf("after:4 fired at %v, want [5 6 7 8]", afterFires)
	}
}

// TestProbabilisticReplay: the probabilistic trigger is a pure function
// of (seed, site, hit index) — two plans with the same seed draw the
// same faults at the same hits, and a different seed draws differently.
func TestProbabilisticReplay(t *testing.T) {
	draw := func(seed string) []bool {
		p, err := Parse("seed=" + seed + ";spill.read.err=0.3")
		if err != nil {
			t.Fatal(err)
		}
		Activate(p)
		defer Deactivate()
		out := make([]bool, 200)
		for i := range out {
			out[i] = Fire(SiteSpillReadErr)
		}
		return out
	}
	a, b, c := draw("7"), draw("7"), draw("8")
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("p=0.3 fired %d/200 times — not probabilistic", fires)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew identical fault sequences")
	}
}

func TestCounters(t *testing.T) {
	p := arm(t, "spill.read.err=every:2")
	for i := 0; i < 6; i++ {
		Fire(SiteSpillReadErr)
	}
	if got := p.Hits(SiteSpillReadErr); got != 6 {
		t.Fatalf("hits = %d, want 6", got)
	}
	if got := p.Fired(SiteSpillReadErr); got != 3 {
		t.Fatalf("fired = %d, want 3", got)
	}
}

func TestErrTyped(t *testing.T) {
	arm(t, "spill.write.err=on:1")
	err := Err(SiteSpillWriteErr, "write")
	var inj *InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("Err returned %T, want *InjectedError", err)
	}
	if inj.Site != SiteSpillWriteErr || !strings.Contains(inj.Error(), "write") {
		t.Fatalf("unexpected injected error: %v", inj)
	}
	if err := Err(SiteSpillWriteErr, "write"); err != nil {
		t.Fatalf("on:1 fired twice: %v", err)
	}
}

func TestFlipBit(t *testing.T) {
	arm(t, "seed=5;spill.read.flip=on:1")
	buf := make([]byte, 32)
	ref := make([]byte, 32)
	if !FlipBit(SiteSpillFlip, buf) {
		t.Fatal("flip did not fire")
	}
	diff := 0
	for i := range buf {
		if buf[i] != ref[i] {
			for b := 0; b < 8; b++ {
				if (buf[i]^ref[i])&(1<<b) != 0 {
					diff++
				}
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diff)
	}
	if FlipBit(SiteSpillFlip, buf) {
		t.Fatal("on:1 flipped twice")
	}
}

func TestStallArg(t *testing.T) {
	arm(t, "transport.conn.stall@25=on:1")
	if d := StallFor(SiteConnStall); d != 25*time.Millisecond {
		t.Fatalf("stall = %v, want 25ms", d)
	}
	if d := StallFor(SiteConnStall); d != 0 {
		t.Fatalf("on:1 stalled twice (%v)", d)
	}
}

func TestCrashHandler(t *testing.T) {
	arm(t, "crash.round.end=on:2")
	var crashed []string
	prev := SetCrashHandler(func(site string) { crashed = append(crashed, site) })
	defer SetCrashHandler(prev)
	Crash(SiteCrashRoundEnd) // hit 1: no fire
	Crash(SiteCrashRoundEnd) // hit 2: fires
	if len(crashed) != 1 || crashed[0] != SiteCrashRoundEnd {
		t.Fatalf("crash handler saw %v, want one %s", crashed, SiteCrashRoundEnd)
	}
}

func TestArg(t *testing.T) {
	arm(t, "ckpt.write.torn@77=on:1")
	if v, ok := Arg(SiteCkptTorn); !ok || v != 77 {
		t.Fatalf("Arg = %d,%v want 77,true", v, ok)
	}
	if _, ok := Arg(SiteConnDrop); ok {
		t.Fatal("Arg for unarmed site")
	}
}

// TestSplitMix64Pinned: failpoint decisions and internal/sched's failure
// injection are both functions of this hash, so a change to it would
// silently move every seeded drill and every injected column.
func TestSplitMix64Pinned(t *testing.T) {
	for in, want := range map[uint64]uint64{
		0:          0xe220a8397b1dcdaf,
		1:          0x910a2dec89025cc1,
		0xFA117A1E: 0xcc8fefad5d34daab,
	} {
		if got := SplitMix64(in); got != want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", in, got, want)
		}
	}
}
