package fed

import (
	"fmt"
	"io"
	"strings"

	"github.com/fedzkt/fedzkt/internal/obs"
)

// Column is one report column: a header and a cell renderer. The renderer
// receives the row index as well as the round so comparative reports can
// close over a second history.
type Column struct {
	Header string
	Value  func(i int, m RoundMetrics) string
}

// Col builds a column. Sugar for composing report layouts inline.
func Col(header string, value func(i int, m RoundMetrics) string) Column {
	return Column{Header: header, Value: value}
}

// RoundReport renders a history as one aligned table, a row per round —
// the single renderer behind every example's printout. Note, when set, may
// return an extra annotation line printed under a row (empty string =
// none).
type RoundReport struct {
	Columns []Column
	Note    func(i int, m RoundMetrics) string
}

// Render writes the header and one line per round, columns right-aligned
// and separated by " | ".
func (rep RoundReport) Render(w io.Writer, h History) {
	cells := make([][]string, len(h))
	widths := make([]int, len(rep.Columns))
	for j, c := range rep.Columns {
		widths[j] = len([]rune(c.Header))
	}
	for i, m := range h {
		cells[i] = make([]string, len(rep.Columns))
		for j, c := range rep.Columns {
			s := c.Value(i, m)
			cells[i][j] = s
			if n := len([]rune(s)); n > widths[j] {
				widths[j] = n
			}
		}
	}
	var b strings.Builder
	for j, c := range rep.Columns {
		if j > 0 {
			b.WriteString(" | ")
		}
		pad(&b, c.Header, widths[j])
	}
	b.WriteByte('\n')
	for i := range h {
		for j := range rep.Columns {
			if j > 0 {
				b.WriteString(" | ")
			}
			pad(&b, cells[i][j], widths[j])
		}
		b.WriteByte('\n')
		if rep.Note != nil {
			if note := rep.Note(i, h[i]); note != "" {
				fmt.Fprintf(&b, "      | %s\n", note)
			}
		}
	}
	io.WriteString(w, b.String())
}

// pad right-aligns s in a field of width w (rune-counted, so the report's
// em-dash and percent cells line up).
func pad(b *strings.Builder, s string, w int) {
	for n := len([]rune(s)); n < w; n++ {
		b.WriteByte(' ')
	}
	b.WriteString(s)
}

// ScaleColumns is the device-scale report layout: participation,
// replica-store traffic and phase timings per round.
func ScaleColumns() []Column {
	return []Column{
		Col("round", func(_ int, m RoundMetrics) string { return obs.FmtInt(m.Round) }),
		Col("sampled", func(_ int, m RoundMetrics) string { return obs.FmtInt(len(m.Active)) }),
		Col("completed", func(_ int, m RoundMetrics) string {
			return obs.FmtInt(len(m.Active) - len(m.Dropped) - len(m.Injected))
		}),
		Col("dropped", func(_ int, m RoundMetrics) string { return obs.FmtInt(len(m.Dropped)) }),
		Col("injected", func(_ int, m RoundMetrics) string { return obs.FmtInt(len(m.Injected)) }),
		Col("store hit", func(_ int, m RoundMetrics) string { return obs.FmtHitPct(m.StoreHits, m.StoreMisses) }),
		Col("spill r/w MB", func(_ int, m RoundMetrics) string {
			return obs.FmtMB(m.SpillReadBytes) + "/" + obs.FmtMB(m.SpillWriteBytes)
		}),
		Col("local time", func(_ int, m RoundMetrics) string { return obs.FmtDur(m.LocalElapsed) }),
		Col("server time", func(_ int, m RoundMetrics) string { return obs.FmtDur(m.ServerElapsed) }),
		Col("round time", func(_ int, m RoundMetrics) string { return obs.FmtDur(m.Elapsed) }),
	}
}

// DistributedColumns is the networked-run report layout: accuracy,
// absorb accounting and wire traffic per round.
func DistributedColumns() []Column {
	return []Column{
		Col("round", func(_ int, m RoundMetrics) string { return obs.FmtInt(m.Round) }),
		Col("global acc", func(_ int, m RoundMetrics) string { return obs.FmtAcc(m.GlobalAcc) }),
		Col("absorbed", func(_ int, m RoundMetrics) string { return obs.FmtInt(m.Absorbed) }),
		Col("late", func(_ int, m RoundMetrics) string { return obs.FmtInt(m.LateAbsorbed) }),
		Col("dropped", func(_ int, m RoundMetrics) string { return obs.FmtInt(m.DroppedUploads) }),
		Col("wire up KiB", func(_ int, m RoundMetrics) string { return obs.FmtKiB(m.BytesUp) }),
		Col("wire down KiB", func(_ int, m RoundMetrics) string { return obs.FmtKiB(m.BytesDown) }),
	}
}

// FaultNote is the standard Note hook: an annotation line whenever a
// round degraded on replica faults.
func FaultNote(_ int, m RoundMetrics) string {
	if len(m.ReplicaFaults) == 0 {
		return ""
	}
	return fmt.Sprintf("replica faults (degraded, round continued): %v", m.ReplicaFaults)
}
