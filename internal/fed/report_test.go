package fed

import (
	"strings"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/obs"
)

func TestRoundReportRender(t *testing.T) {
	ids := func(n int) []int { return make([]int, n) }
	rows := History{
		{Round: 1, Active: ids(32), Dropped: ids(1), Injected: ids(1),
			StoreHits: 90, StoreMisses: 10,
			SpillReadBytes: 2_000_000, SpillWriteBytes: 1_000_000,
			LocalElapsed: 120 * time.Millisecond, ServerElapsed: 300 * time.Millisecond,
			Elapsed: 430 * time.Millisecond},
		{Round: 2, Active: ids(32),
			LocalElapsed: 110 * time.Millisecond, ServerElapsed: 290 * time.Millisecond,
			Elapsed: 400 * time.Millisecond, ReplicaFaults: []int{7, 9}},
	}
	var b strings.Builder
	RoundReport{Columns: ScaleColumns(), Note: FaultNote}.Render(&b, rows)
	out := b.String()

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 2 rows + 1 fault note
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "round") || !strings.Contains(lines[0], "server time") {
		t.Fatalf("header missing columns: %q", lines[0])
	}
	// sampled / completed / dropped / injected are derived from the id
	// lists of the round, not stored.
	if f := strings.Split(lines[1], " | "); strings.TrimSpace(f[1]) != "32" || strings.TrimSpace(f[2]) != "30" ||
		strings.TrimSpace(f[3]) != "1" || strings.TrimSpace(f[4]) != "1" {
		t.Fatalf("participation columns wrong: %q", lines[1])
	}
	if !strings.Contains(lines[1], "90.0%") {
		t.Fatalf("hit rate not rendered: %q", lines[1])
	}
	if !strings.Contains(lines[1], "2.0/1.0") {
		t.Fatalf("spill MB not rendered: %q", lines[1])
	}
	if !strings.Contains(lines[2], "—") {
		t.Fatalf("idle store should render em-dash: %q", lines[2])
	}
	if !strings.Contains(lines[3], "replica faults") || !strings.Contains(lines[3], "[7 9]") {
		t.Fatalf("fault note missing: %q", lines[3])
	}
	// Alignment: every row has the same column separators at the same
	// byte offsets as the header.
	if strings.Count(lines[1], " | ") != strings.Count(lines[0], " | ") {
		t.Fatalf("separator count mismatch:\n%s", out)
	}
}

func TestRoundReportCustomColumns(t *testing.T) {
	// A comparative report closing over a second series by row index —
	// the straggler example's layout.
	baseline := []float64{0.5, 0.6}
	rows := History{
		{Round: 1, GlobalAcc: 0.4},
		{Round: 2, GlobalAcc: 0.55},
	}
	cols := []Column{
		Col("round", func(_ int, m RoundMetrics) string { return obs.FmtInt(m.Round) }),
		Col("p=0.4 acc", func(_ int, m RoundMetrics) string { return obs.FmtAcc(m.GlobalAcc) }),
		Col("p=1.0 acc", func(i int, _ RoundMetrics) string { return obs.FmtAcc(baseline[i]) }),
	}
	var b strings.Builder
	RoundReport{Columns: cols}.Render(&b, rows)
	out := b.String()
	if !strings.Contains(out, "0.5500") || !strings.Contains(out, "0.6000") {
		t.Fatalf("custom column values missing:\n%s", out)
	}
}

func TestDistributedColumns(t *testing.T) {
	rows := History{{Round: 1, GlobalAcc: 0.42, Absorbed: 3, LateAbsorbed: 1,
		DroppedUploads: 2, BytesUp: 4096, BytesDown: 8192}}
	var b strings.Builder
	RoundReport{Columns: DistributedColumns()}.Render(&b, rows)
	out := b.String()
	for _, want := range []string{"0.4200", "4.0", "8.0", "absorbed", "late"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
