package obs

import (
	"fmt"
	"time"
)

// Shared cell formatters, so every round report (internal/fed) and example
// renders the same quantity the same way.

// FmtInt renders v in base 10.
func FmtInt(v int) string { return fmt.Sprintf("%d", v) }

// FmtAcc renders an accuracy with 4 decimals.
func FmtAcc(v float64) string { return fmt.Sprintf("%.4f", v) }

// FmtKiB renders a byte count in KiB with 1 decimal.
func FmtKiB(v int64) string { return fmt.Sprintf("%.1f", float64(v)/1024) }

// FmtMB renders a byte count in MB with 1 decimal.
func FmtMB(v int64) string { return fmt.Sprintf("%.1f", float64(v)/1e6) }

// FmtDur renders a duration rounded to milliseconds.
func FmtDur(d time.Duration) string { return d.Round(time.Millisecond).String() }

// FmtHitPct renders a hit rate from hit/miss counts, or "—" when the
// underlying store saw no traffic (the fully-resident mode).
func FmtHitPct(hits, misses int64) string {
	if hits+misses == 0 {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}
