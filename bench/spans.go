package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/fedzkt/fedzkt/internal/obs"
)

// span is one completed span as the tracer exports it (Chrome
// trace_event "X" records): times in microseconds since the tracer's
// epoch, parent 0 for a root.
type span struct {
	ID, Parent uint64
	Cat, Name  string
	Round      int
	Start, Dur int64
}

func (s span) end() int64  { return s.Start + s.Dur }
func (s span) key() string { return s.Cat + "." + s.Name }

// readSpans decodes the tracer's ring through its public Chrome-trace
// export — the tracer offers no other read access — and, with a trace
// directory, writes the same document there for chrome://tracing.
func readSpans(tr *obs.Tracer, traceDir, workloadName string) ([]span, error) {
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		return nil, fmt.Errorf("exporting trace: %w", err)
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(traceDir, workloadName+".trace.json"), buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Args struct {
				ID     uint64 `json:"id"`
				Round  int    `json:"round"`
				Parent uint64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decoding trace: %w", err)
	}
	spans := make([]span, len(doc.TraceEvents))
	for i, e := range doc.TraceEvents {
		spans[i] = span{ID: e.Args.ID, Parent: e.Args.Parent, Cat: e.Cat, Name: e.Name,
			Round: e.Args.Round, Start: e.TS, Dur: e.Dur}
	}
	return spans, nil
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (overlapping children — device tasks on parallel
// workers — count once).
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.end(), parent.end())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		covered += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return parent.Dur - covered
}

// roundBreakdown is the per-round attribution of a traced pass: the
// duration of each round span, the summed duration of every other span
// kind per round, and each round span's self time.
type roundBreakdown struct {
	rounds  []int // round numbers present, ascending
	roundUs map[int]int64
	selfUs  map[int]int64
	sumUs   map[string]map[int]int64 // span key → round → Σ duration
	calls   map[string]map[int]int   // span key → round → count
}

const roundSpanKey = "trace.round"

func breakdown(spans []span) roundBreakdown {
	b := roundBreakdown{
		roundUs: map[int]int64{}, selfUs: map[int]int64{},
		sumUs: map[string]map[int]int64{}, calls: map[string]map[int]int{},
	}
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.key() == roundSpanKey {
			b.rounds = append(b.rounds, s.Round)
			b.roundUs[s.Round] = s.Dur
			b.selfUs[s.Round] = selfTime(s, children[s.ID])
			continue
		}
		if s.Round == 0 {
			continue // set-up and probe spans carry no round
		}
		if b.sumUs[s.key()] == nil {
			b.sumUs[s.key()] = map[int]int64{}
			b.calls[s.key()] = map[int]int{}
		}
		b.sumUs[s.key()][s.Round] += s.Dur
		b.calls[s.key()][s.Round]++
	}
	sort.Ints(b.rounds)
	return b
}

// measured returns the rounds that count toward per-round means: not the
// first two (page-fault and arena warm-up) and not the last (the only
// one that evaluates).
func measured(rounds []int) []int {
	if len(rounds) <= 3 {
		return nil
	}
	return rounds[2 : len(rounds)-1]
}

// meanMs is the mean per-round milliseconds of a span kind over the
// given rounds (rounds where it never ran count as zero).
func (b roundBreakdown) meanMs(key string, rounds []int) float64 {
	return meanOf(b.sumUs[key], rounds)
}

func (b roundBreakdown) meanCalls(key string, rounds []int) float64 {
	if len(rounds) == 0 {
		return 0
	}
	total := 0
	for _, r := range rounds {
		total += b.calls[key][r]
	}
	return float64(total) / float64(len(rounds))
}

// meanOf is the mean milliseconds per round of a round → microseconds map.
func meanOf(us map[int]int64, rounds []int) float64 {
	if len(rounds) == 0 {
		return 0
	}
	var total int64
	for _, r := range rounds {
		total += us[r]
	}
	return float64(total) / 1e3 / float64(len(rounds))
}
