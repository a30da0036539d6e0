package main

import (
	"reflect"
	"testing"

	fedzkt "github.com/fedzkt/fedzkt"
)

func TestParseDevices(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"1000", []int{1000}, true},
		{"100,1000", []int{100, 1000}, true},
		{" 8 , 32 ", []int{8, 32}, true},
		{"", nil, false},
		{"0", nil, false},
		{"-5", nil, false},
		{"ten", nil, false},
		{"10,", nil, false},
	}
	for _, c := range cases {
		got, err := parseDevices(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseDevices(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseDevices(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-exp", "scale", "-scale", "galactic"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if err := run([]string{"-exp", "scale", "-devices", "0"}); err == nil {
		t.Fatal("zero device count accepted")
	}
	if err := run([]string{"-exp", "scale", "-state-codec", "float8"}); err == nil {
		t.Fatal("unknown state codec accepted")
	}
	if err := run([]string{}); err == nil {
		t.Fatal("missing -exp accepted")
	}
	if err := run([]string{"-exp", "scale", "-workers", "-2"}); err == nil {
		t.Fatal("negative -workers accepted")
	}
	if err := run([]string{"-exp", "scale", "-teachers-per-iter", "-1"}); err == nil {
		t.Fatal("negative -teachers-per-iter accepted")
	}
	if err := run([]string{"-exp", "scale", "-teacher-sampling", "psychic"}); err == nil {
		t.Fatal("unknown -teacher-sampling accepted")
	}
	for _, bad := range [][]string{{"-replica-store", "tape"}, {"-shards", "-1"}, {"-hot-set", "-1"}, {"-pipeline-depth", "-1"}} {
		if err := run(append([]string{"-exp", "scale"}, bad...)); err == nil {
			t.Fatalf("%v accepted", bad)
		}
	}
	// The sweep picks its own teacher count, so weighted sampling without
	// one must get past flag validation (-list stops before any work).
	if err := run([]string{"-teacher-sampling", "weighted", "-list"}); err != nil {
		t.Fatalf("-teacher-sampling weighted without -teachers-per-iter rejected at the flags: %v", err)
	}
	// Flag validation must run before any experiment work, so the bad
	// combination errors even with an otherwise valid experiment.
	if err := run([]string{"-exp", "table1", "-fast-math", "-workers", "-1"}); err == nil {
		t.Fatal("negative -workers accepted alongside -fast-math")
	}
}

// TestFastMathFlagTogglesAndRestores checks -fast-math flips the kernel
// mode for the run and restores exact mode on exit (even on an error
// path), so a later golden run in the same process stays exact.
func TestFastMathFlagTogglesAndRestores(t *testing.T) {
	if fedzkt.FastMath() {
		t.Fatal("fast math unexpectedly on at test start")
	}
	// -list exits before experiments run but after flag handling.
	if err := run([]string{"-fast-math", "-list"}); err != nil {
		t.Fatal(err)
	}
	if fedzkt.FastMath() {
		t.Fatal("fast math left enabled after run returned")
	}
}
