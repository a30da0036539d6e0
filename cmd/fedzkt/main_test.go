package main

import (
	"reflect"
	"strings"
	"testing"
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
	for _, bad := range [][]string{{"-replica-store", "tape"}, {"-shards", "-1"}, {"-hot-set", "-1"}, {"-pipeline-depth", "-1"}} {
		if err := run(append([]string{"-exp", "scale"}, bad...)); err == nil {
			t.Fatalf("%v accepted", bad)
		}
	}
	// Flag validation must run before any experiment work, so a bad value
	// errors even with an otherwise valid experiment.
	if err := run([]string{"-exp", "table1", "-workers", "-1"}); err == nil {
		t.Fatal("negative -workers accepted")
	}
	// One validation, by field name, for every flag Config binds: values
	// and combinations that used to run (a -1 cadence checkpointed every
	// round, -rounds never reaches an experiment) or fail only after the
	// federation was built.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-checkpoint-dir", "d", "-checkpoint-every", "-1"}, "negative CheckpointEvery -1"},
		{[]string{"-checkpoint-dir", "d", "-keep-checkpoints", "-1"}, "negative KeepCheckpoints -1"},
		{[]string{"-checkpoint-every", "2"}, "CheckpointEvery 2 requires CheckpointDir"},
		{[]string{"-resume"}, "Resume requires CheckpointDir"},
		{[]string{"-fail-rate", "1"}, "FailureRate 1 outside [0,1)"},
		{[]string{"-weighted"}, "SampleWeighted requires SampleK > 0"},
		{[]string{"-virtual-devices", "-round-deadline", "1s"}, "VirtualDevices requires RoundDeadline = 0"},
	} {
		err := run(append([]string{"-exp", "table1"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
