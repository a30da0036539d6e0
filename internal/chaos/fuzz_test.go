package chaos

import "testing"

// FuzzParse drives the -chaos spec parser with arbitrary strings. Parse
// must never panic, and a spec it accepts must re-parse from the plan's
// String to the same seed and the same Armed answer for every known site.
// The committed corpus (testdata/fuzz/FuzzParse) holds a valid
// multi-clause spec with a seed and a site argument, an unknown site, a
// site armed twice, a zero on: count and a probability of 1.5.
func FuzzParse(f *testing.F) {
	f.Add("seed=42;spill.read.err=0.25;ckpt.write.torn@128=on:1")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its String %q rejected: %v", spec, p.String(), err)
		}
		if again.Seed != p.Seed {
			t.Fatalf("seed %d re-parses as %d", p.Seed, again.Seed)
		}
		for _, site := range Sites() {
			if p.Armed(site) != again.Armed(site) {
				t.Fatalf("site %s: armed %v, re-parsed %v", site, p.Armed(site), again.Armed(site))
			}
		}
	})
}
