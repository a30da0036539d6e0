package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The device-scale sweep is gone (bench/ measures that axis), and with
	// it the comma-list form of -devices.
	if err := run([]string{"-exp", "scale"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("-exp scale: error %v, want unknown experiment", err)
	}
	if err := run([]string{"-exp", "table1", "-devices", "8,24"}); err == nil || !strings.Contains(err.Error(), "-devices") {
		t.Fatalf("-devices 8,24: error %v, want one naming -devices", err)
	}
	if err := run([]string{"-exp", "table1", "-scale", "galactic"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if err := run([]string{"-exp", "table1", "-devices", "0"}); err == nil {
		t.Fatal("zero device count accepted")
	}
	if err := run([]string{"-exp", "table1", "-state-codec", "float8"}); err == nil {
		t.Fatal("unknown state codec accepted")
	}
	if err := run([]string{}); err == nil {
		t.Fatal("missing -exp accepted")
	}
	if err := run([]string{"-exp", "table1", "-workers", "-2"}); err == nil {
		t.Fatal("negative -workers accepted")
	}
	if err := run([]string{"-exp", "table1", "-teachers-per-iter", "-1"}); err == nil {
		t.Fatal("negative -teachers-per-iter accepted")
	}
	for _, bad := range [][]string{{"-replica-store", "tape"}, {"-hot-set", "-1"}, {"-pipeline-depth", "-1"}} {
		if err := run(append([]string{"-exp", "table1"}, bad...)); err == nil {
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
		{[]string{"-weighted"}, "flag provided but not defined: -weighted"},
	} {
		err := run(append([]string{"-exp", "table1"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
