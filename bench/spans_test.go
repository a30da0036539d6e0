package main

import (
	"math"
	"testing"
)

// Self time is a span's duration minus what its children cover:
// overlapping children count once, and a child reaching outside its
// parent is clipped to it.
func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 100, Dur: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []span{{Start: 100, Dur: 20}, {Start: 150, Dur: 30}}, 50},
		{"overlapping workers", []span{{Start: 110, Dur: 40}, {Start: 120, Dur: 50}}, 40},
		{"nested child counted once", []span{{Start: 110, Dur: 60}, {Start: 120, Dur: 10}}, 40},
		{"clipped to the parent", []span{{Start: 90, Dur: 20}, {Start: 190, Dur: 50}}, 80},
		{"fully covered", []span{{Start: 100, Dur: 100}}, 0},
		{"outside the parent", []span{{Start: 0, Dur: 50}, {Start: 300, Dur: 10}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBreakdown(t *testing.T) {
	var spans []span
	id := uint64(0)
	add := func(parent uint64, cat, name string, round int, start, dur int64) uint64 {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Cat: cat, Name: name, Round: round, Start: start, Dur: dur})
		return id
	}
	add(0, "fedzkt", "register", 0, 0, 10) // set-up span: no round, not attributed
	for r := 1; r <= 5; r++ {
		base := int64(r * 1000)
		round := add(0, "trace", "round", r, base, 100)
		lp := add(round, "sched", "local_phase", r, base+10, 40)
		add(lp, "fed", "local_update", r, base+10, 30)
		add(lp, "fed", "local_update", r, base+15, 35)
		add(round, "fedzkt", "distill", r, base+50, int64(40+r))
	}
	b := breakdown(spans)
	if len(b.rounds) != 5 || b.rounds[0] != 1 || b.rounds[4] != 5 {
		t.Fatalf("rounds = %v, want 1..5", b.rounds)
	}
	rs := measured(b.rounds)
	if len(rs) != 2 || rs[0] != 3 || rs[1] != 4 {
		t.Fatalf("measured rounds = %v, want [3 4] (first two and last excluded)", rs)
	}
	if got := b.meanMs("fedzkt.distill", rs); got != 0.0435 {
		t.Errorf("distill mean = %v ms, want 0.0435", got)
	}
	if got := b.meanMs("fed.local_update", rs); got != 0.065 {
		t.Errorf("local_update busy sum = %v ms, want 0.065", got)
	}
	if got := b.meanCalls("fed.local_update", rs); got != 2 {
		t.Errorf("local_update calls = %v, want 2", got)
	}
	// Round 3: 100 − local_phase 40 − distill 43 = 17 unattributed; the
	// grandchildren under local_phase do not count against the round.
	if got := b.selfUs[3]; got != 17 {
		t.Errorf("round 3 self time = %d µs, want 17", got)
	}
	// Children + self time rebuild the round.
	sum := b.meanMs("sched.local_phase", rs) + b.meanMs("fedzkt.distill", rs) + meanOf(b.selfUs, rs)
	if round := meanOf(b.roundUs, rs); math.Abs(sum-round) > 1e-12 {
		t.Errorf("children + self = %v ms, round = %v ms", sum, round)
	}
	if measured([]int{1, 2, 3}) != nil {
		t.Error("three rounds leave nothing to measure")
	}
}
