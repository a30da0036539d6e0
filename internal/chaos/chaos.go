// Package chaos is the unified, seeded fault-injection subsystem: one
// replayable Plan arming named failpoints across every seam of the stack
// — transport connection drops and stalls, spill-tier I/O errors and bit
// flips, checkpoint torn writes at chosen byte offsets, scheduler worker
// panics, and whole-process crash points. Production code queries its
// failpoints through package-level helpers that cost a single atomic
// load when no plan is armed, so a disarmed binary pays nothing.
//
// A plan is parsed from a compact spec string (the -chaos flag):
//
//	spec    := clause (';' clause)*
//	clause  := "seed=" uint64
//	         | site [ '@' int ] '=' trigger
//	trigger := float                 probabilistic: fire with probability p per hit
//	         | "on:" n               fire on exactly the n-th hit (1-based)
//	         | "every:" n            fire on every n-th hit
//	         | "after:" n            fire on every hit past the n-th
//
// Examples:
//
//	seed=42;spill.read.err=0.01;transport.conn.drop=every:50
//	ckpt.write.torn@128=on:1;crash.round.end=on:3
//
// Site names must come from Sites (unknown names are a parse error, so a
// typo cannot silently disarm an intended fault). The optional @int
// argument parameterises sites that take one — the byte offset of a torn
// checkpoint write, the millisecond duration of a connection stall.
//
// Every decision is a pure function of (plan seed, site name, per-site
// hit index), so a chaotic run replays exactly under the same plan and
// the same sequence of hits — which deterministic round arithmetic
// guarantees. Per-site hit and fire counters are registered in
// internal/obs when the plan is armed, making a chaotic run observable
// at /metrics like any other.
package chaos

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/fedzkt/fedzkt/internal/obs"
)

// Failpoint site names. Each names one seam production code arms via the
// package-level helpers; Parse rejects anything else.
const (
	// SiteConnDrop severs a transport connection mid-read/mid-write (the
	// session layer's resume tokens are what recovers it).
	SiteConnDrop = "transport.conn.drop"
	// SiteConnStall delays a transport read by the site argument in
	// milliseconds (default 10) — a network hiccup, not a death.
	SiteConnStall = "transport.conn.stall"
	// SiteSpillReadErr injects a transient I/O error into a spill-record
	// read (retried with backoff before degrading the member).
	SiteSpillReadErr = "spill.read.err"
	// SiteSpillWriteErr injects a transient I/O error into a spill-record
	// write.
	SiteSpillWriteErr = "spill.write.err"
	// SiteSpillFlip flips one deterministic bit in a spill record's bytes
	// after a successful read — silent media corruption, caught by the
	// per-record CRC.
	SiteSpillFlip = "spill.read.flip"
	// SiteCkptTorn tears an atomic checkpoint write: only the first
	// site-argument bytes of the payload (default 64) reach the file
	// before the write is cut short — the torn tail a crash between
	// write and fsync leaves behind, caught by the file CRC on load.
	SiteCkptTorn = "ckpt.write.torn"
	// SiteWorkerPanic panics a scheduler worker inside a device task
	// (recovered into a per-device failure, never a process death).
	SiteWorkerPanic = "sched.worker.panic"
	// Crash points: kill the whole process (via the crash handler) at a
	// well-defined coordinator boundary. Tests install a panicking
	// handler; the default handler exits with CrashExitCode.
	SiteCrashRoundStart = "crash.round.start"
	SiteCrashRoundEnd   = "crash.round.end"
	SiteCrashCkptPre    = "crash.ckpt.pre"
	SiteCrashCkptPost   = "crash.ckpt.post"
)

// Sites returns every known failpoint site name, sorted.
func Sites() []string {
	s := []string{
		SiteConnDrop, SiteConnStall,
		SiteSpillReadErr, SiteSpillWriteErr, SiteSpillFlip,
		SiteCkptTorn, SiteWorkerPanic,
		SiteCrashRoundStart, SiteCrashRoundEnd, SiteCrashCkptPre, SiteCrashCkptPost,
	}
	sort.Strings(s)
	return s
}

// CrashExitCode is the exit status of the default crash handler, distinct
// from ordinary failure (1) so a soak harness can tell an armed crash
// from a genuine error.
const CrashExitCode = 7

// triggerMode selects how a failpoint decides to fire.
type triggerMode uint8

const (
	modeProb triggerMode = iota
	modeOn
	modeEvery
	modeAfter
)

// Failpoint is one armed site of a plan.
type Failpoint struct {
	site string
	mode triggerMode
	n    uint64  // on/every/after parameter
	prob float64 // probabilistic parameter
	arg  int64   // optional site argument (offset, milliseconds)
	has  bool    // whether arg was given

	hits  atomic.Uint64
	fired obs.Counter
	seen  obs.Counter
}

// Plan is a parsed, seeded set of armed failpoints. Immutable after
// Parse; the hit counters inside are atomic.
type Plan struct {
	Seed   uint64
	points map[string]*Failpoint
	spec   string
}

// Parse builds a Plan from a spec string (grammar in the package
// comment). An empty spec yields a valid plan with no failpoints.
func Parse(spec string) (*Plan, error) {
	p := &Plan{Seed: 1, points: make(map[string]*Failpoint), spec: spec}
	known := make(map[string]bool)
	for _, s := range Sites() {
		known[s] = true
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: clause %q is not key=value", clause)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key == "seed" {
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %v", val, err)
			}
			p.Seed = seed
			continue
		}
		fp := &Failpoint{}
		site, argStr, hasArg := strings.Cut(key, "@")
		if !known[site] {
			return nil, fmt.Errorf("chaos: unknown failpoint site %q (known: %s)", site, strings.Join(Sites(), ", "))
		}
		if hasArg {
			arg, err := strconv.ParseInt(argStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad argument in %q: %v", key, err)
			}
			fp.arg, fp.has = arg, true
		}
		fp.site = site
		if _, dup := p.points[site]; dup {
			return nil, fmt.Errorf("chaos: site %q armed twice", site)
		}
		switch {
		case strings.HasPrefix(val, "on:"):
			fp.mode = modeOn
			if err := parseCount(val[3:], &fp.n); err != nil {
				return nil, fmt.Errorf("chaos: %q: %v", clause, err)
			}
		case strings.HasPrefix(val, "every:"):
			fp.mode = modeEvery
			if err := parseCount(val[6:], &fp.n); err != nil {
				return nil, fmt.Errorf("chaos: %q: %v", clause, err)
			}
		case strings.HasPrefix(val, "after:"):
			fp.mode = modeAfter
			if err := parseCount(val[6:], &fp.n); err != nil {
				return nil, fmt.Errorf("chaos: %q: %v", clause, err)
			}
		default:
			prob, err := strconv.ParseFloat(val, 64)
			// Written so a NaN, which fails every comparison, is refused too.
			if err != nil || !(prob >= 0 && prob <= 1) {
				return nil, fmt.Errorf("chaos: trigger %q is neither a probability in [0,1] nor on:/every:/after:", val)
			}
			fp.mode, fp.prob = modeProb, prob
		}
		p.points[site] = fp
	}
	return p, nil
}

func parseCount(s string, out *uint64) error {
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil || n == 0 {
		return fmt.Errorf("bad count %q (want a positive integer)", s)
	}
	*out = n
	return nil
}

// String returns the spec the plan was parsed from.
func (p *Plan) String() string { return p.spec }

// Armed reports whether the plan arms the given site.
func (p *Plan) Armed(site string) bool {
	if p == nil {
		return false
	}
	_, ok := p.points[site]
	return ok
}

// Hits returns how many times the given site has been evaluated since the
// plan was parsed.
func (p *Plan) Hits(site string) uint64 {
	if fp, ok := p.points[site]; ok {
		return fp.hits.Load()
	}
	return 0
}

// Fired returns how many times the given site actually fired.
func (p *Plan) Fired(site string) uint64 {
	if fp, ok := p.points[site]; ok {
		return uint64(fp.fired.Load())
	}
	return 0
}

// decide evaluates one hit of fp: increments the hit index and applies
// the trigger. Pure in (seed, site, hit index) for the probabilistic
// mode, so a replayed run draws the same faults.
func (p *Plan) decide(fp *Failpoint) bool {
	hit := fp.hits.Add(1) // 1-based
	fp.seen.Inc()
	var fire bool
	switch fp.mode {
	case modeOn:
		fire = hit == fp.n
	case modeEvery:
		fire = hit%fp.n == 0
	case modeAfter:
		fire = hit > fp.n
	default:
		h := SplitMix64(p.Seed ^ siteHash(fp.site) ^ hit*0x9E3779B97F4A7C15)
		fire = float64(h>>11)/(1<<53) < fp.prob
	}
	if fire {
		fp.fired.Inc()
	}
	return fire
}

// active is the armed plan; nil when chaos is off. Fire's fast path is a
// single atomic pointer load.
var active atomic.Pointer[Plan]

// Activate arms the plan process-wide and registers its per-site hit and
// fire counters in the default obs registry (metric names mangle dots to
// underscores). Passing nil disarms, as Deactivate does.
func Activate(p *Plan) {
	if p != nil {
		reg := obs.Default()
		for site, fp := range p.points {
			m := strings.NewReplacer(".", "_").Replace(site)
			reg.RegisterCounter("fedzkt_chaos_hits_total_"+m,
				"chaos failpoint evaluations at "+site, &fp.seen)
			reg.RegisterCounter("fedzkt_chaos_fired_total_"+m,
				"chaos faults injected at "+site, &fp.fired)
		}
	}
	active.Store(p)
}

// Deactivate disarms chaos process-wide.
func Deactivate() { active.Store(nil) }

// Active returns the armed plan, or nil.
func Active() *Plan { return active.Load() }

// Fire evaluates one hit of the named site against the armed plan:
// false (for free, bar one atomic load) when no plan is armed or the
// site is not in it.
func Fire(site string) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	fp, ok := p.points[site]
	if !ok {
		return false
	}
	return p.decide(fp)
}

// Arg returns the armed site's argument and whether one was given. Does
// not count as a hit.
func Arg(site string) (int64, bool) {
	p := active.Load()
	if p == nil {
		return 0, false
	}
	fp, ok := p.points[site]
	if !ok || !fp.has {
		return 0, false
	}
	return fp.arg, true
}

// InjectedError is the error a firing failpoint produces. Transient: I/O
// retry loops treat it like EIO and retry with backoff.
type InjectedError struct {
	Site string
	Op   string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected %s fault at %s", e.Op, e.Site)
}

// Err evaluates one hit of site and returns a typed *InjectedError when
// it fires, nil otherwise. op labels the failed operation in the message.
func Err(site, op string) error {
	if Fire(site) {
		return &InjectedError{Site: site, Op: op}
	}
	return nil
}

// FlipBit evaluates one hit of site and, when it fires, flips one
// deterministic bit of buf (derived from the plan seed and hit index).
// Reports whether it flipped. No-op on empty buffers.
func FlipBit(site string, buf []byte) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	fp, ok := p.points[site]
	if !ok {
		return false
	}
	if !p.decide(fp) || len(buf) == 0 {
		return false
	}
	h := SplitMix64(p.Seed ^ siteHash(site) ^ fp.hits.Load())
	bit := h % uint64(len(buf)*8)
	buf[bit/8] ^= 1 << (bit % 8)
	return true
}

// StallFor evaluates one hit of site and returns how long to stall when
// it fires (the site argument in milliseconds, default 10 ms), or 0.
func StallFor(site string) time.Duration {
	p := active.Load()
	if p == nil {
		return 0
	}
	fp, ok := p.points[site]
	if !ok || !p.decide(fp) {
		return 0
	}
	ms := int64(10)
	if fp.has {
		ms = fp.arg
	}
	return time.Duration(ms) * time.Millisecond
}

// crashFn is what a firing crash point invokes. The default prints the
// site and exits with CrashExitCode — the hard process death the
// durability layer must survive. Tests install a panicking handler.
var crashFn atomic.Pointer[func(site string)]

func defaultCrash(site string) {
	fmt.Fprintf(os.Stderr, "chaos: crash point %s fired: exiting %d\n", site, CrashExitCode)
	os.Exit(CrashExitCode)
}

// SetCrashHandler replaces the crash-point handler, returning the
// previous one (pass nil to restore the default exit handler).
func SetCrashHandler(fn func(site string)) func(site string) {
	var prev func(site string)
	if old := crashFn.Load(); old != nil {
		prev = *old
	}
	if fn == nil {
		crashFn.Store(nil)
	} else {
		crashFn.Store(&fn)
	}
	return prev
}

// Crash evaluates one hit of the named crash point and, when it fires,
// invokes the crash handler — which does not return under the default
// handler (the process exits).
func Crash(site string) {
	if !Fire(site) {
		return
	}
	if fn := crashFn.Load(); fn != nil {
		(*fn)(site)
		return
	}
	defaultCrash(site)
}

// siteHash maps a site name to a stable 64-bit value (FNV-1a).
func siteHash(site string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(site))
	return h.Sum64()
}

// SplitMix64 is the SplitMix64 finaliser, a statistically solid 64-bit
// mixing hash. Failpoint decisions here and internal/sched's failure
// injection both draw from it, so its outputs are pinned by test.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
