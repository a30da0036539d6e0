package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// benchmarkFile mirrors ../BENCHMARK.json, the description of this
// benchmark that the repository's driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program
// saying the same thing: every workload and metric named in one is named
// in the other, with the same unit, direction, bound and reason, inside
// the limits the benchmark contract sets. (That every defined metric is
// also emitted is TestSmokeEveryWorkload's half.)
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}

	if got := strings.Join(f.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command = %q", got)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if f.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the workloads are sized for %d", f.RunSeconds, refSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(f.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (2 to 8 allowed)", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if w.why == "" || utf8.RuneCountInString(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: reason must be one line of at most 200 characters, has %d", w.name, utf8.RuneCountInString(w.why))
		}
	}

	if len(f.EndToEnd) != len(endToEnd) || len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program (1 to 16 allowed)", len(f.EndToEnd), len(endToEnd))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, d := range endToEnd {
		unique(d.name)
		m := f.EndToEnd[i]
		if m.Bound == nil {
			t.Errorf("end-to-end metric %s has no bound", d.name)
			continue
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v bound %v, the program %+v", i, m, *m.Bound, d)
		}
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit, direction or bound", d)
		}
		maxBound = max(maxBound, d.bound)
		if d.name == "setup_s" {
			setupBound = d.bound
			if d.unit != "s" || d.better != "lower" {
				t.Errorf("setup_s must be in s, lower is better: %+v", d)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist and carry the largest bound: %v < %v", setupBound, maxBound)
	}

	if len(f.PerLayer) != len(perLayer) || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (1 to 128 allowed)", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		unique(d.name)
		m := f.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") || d.bound != 0 {
			t.Errorf("per-layer metric %+v: bad unit or direction, or a bound", d)
		}
	}
}
