// Package slo evaluates service-level objectives over the streaming
// scheduler's cumulative counters using the multi-window, multi-burn-rate
// method: each declarative target (a name, an objective like 0.999, and
// an SLI extracting good/total event counts from a runtime summary) is
// judged over a fast and a slow sliding window simultaneously. The burn
// rate of a window is its error rate divided by the error budget
// (1 − objective), so burn rate 1 spends the budget exactly at the
// sustainable pace; a high burn over the fast window (default 14.4×)
// flags an urgent breach, a moderate burn over the slow window
// (default 3×) a warning. Two windows make the alert both fast — the
// short window reacts within seconds — and durable — the long window
// keeps it asserted until the budget is genuinely recovering, instead of
// flapping when a burst ages out of the short window.
//
// The engine is sample-driven and allocation-light: a fixed ring of
// cumulative-counter samples, appended by a single periodic Observe call
// (the daemon's sampler goroutine) and reduced to per-target rates in
// place. Status returns the last evaluation; it never touches the
// scheduler's hot path.
package slo

import (
	"fmt"
	"sync"
	"time"

	"flowsched/internal/stream"
)

// SLI extracts one objective's event counts from a runtime summary:
// good events and total events, both cumulative since the run started.
// Rates over a window are computed from sample deltas, so the function
// must be monotone in both results.
type SLI func(s stream.Summary) (good, total int64)

// Target is one declarative objective: Name labels it in metrics and
// status, Objective is the target good fraction in (0, 1) — e.g. 0.999
// for "99.9% of completions within the response bound" — and SLI
// supplies the counts.
type Target struct {
	Name      string
	Objective float64
	SLI       SLI
}

// Defaults for Config fields left zero, and the burn-rate thresholds,
// following the fast-burn / slow-burn alerting convention (1h/14.4×
// paging, 6h/3× warning scaled down to scheduler time: windows here
// default to seconds, not hours, because a round is microseconds, but
// the thresholds keep their standard meaning relative to the windows):
// fast-window burn >= DefaultFastBurn is a breach, slow-window burn >=
// DefaultSlowBurn a warning.
const (
	DefaultSampleEvery = 250 * time.Millisecond
	DefaultFastWindow  = 5 * time.Second
	DefaultSlowWindow  = time.Minute
	DefaultFastBurn    = 14.4
	DefaultSlowBurn    = 3.0
)

// Config tunes an Engine.
type Config struct {
	// Targets are the objectives to evaluate; at least one is required.
	Targets []Target
	// SampleEvery is the expected spacing of Observe calls; it sizes the
	// sample ring so the slow window is always covered (<= 0 selects
	// DefaultSampleEvery).
	SampleEvery time.Duration
	// FastWindow and SlowWindow are the two sliding windows (<= 0
	// selects the defaults). FastWindow must not exceed SlowWindow.
	FastWindow time.Duration
	SlowWindow time.Duration
}

// TargetStatus is one target's latest evaluation.
type TargetStatus struct {
	Name      string  `json:"name"`
	Objective float64 `json:"objective"`
	// Good and Total are the cumulative counts at the last sample.
	Good  int64 `json:"good"`
	Total int64 `json:"total"`
	// Error rates and burn rates over the two windows. A window with no
	// events reports rate 0 (no evidence is not a breach).
	FastErrorRate float64 `json:"fast_error_rate"`
	SlowErrorRate float64 `json:"slow_error_rate"`
	FastBurnRate  float64 `json:"fast_burn_rate"`
	SlowBurnRate  float64 `json:"slow_burn_rate"`
	// Breaching is the paging condition (fast burn at or above the fast
	// threshold); Warning the slow-window condition.
	Breaching bool `json:"breaching"`
	Warning   bool `json:"warning"`
}

// Status is the engine's latest evaluation across all targets.
type Status struct {
	// Time is the last sample's timestamp (zero before the first
	// Observe).
	Time time.Time `json:"time"`
	// FastWindow and SlowWindow echo the configured windows in seconds,
	// so a scraper can interpret the rates without the daemon's flags.
	FastWindowSeconds float64        `json:"fast_window_seconds"`
	SlowWindowSeconds float64        `json:"slow_window_seconds"`
	Targets           []TargetStatus `json:"targets"`
}

// sample is one Observe call's cumulative counts: a timestamp plus
// (good, total) per target, flattened into a fixed ring.
type sample struct {
	t    time.Time
	good []int64
	tot  []int64
}

// Engine evaluates the configured targets; construct with New. One
// goroutine calls Observe (the daemon's sampler); Status and Breaching
// may be called concurrently from any goroutine (the daemon's handlers).
// None of this is on the scheduler's hot path, so a plain mutex is the
// right tool here — the seqlock discipline stays in obs and stats.
type Engine struct {
	mu   sync.Mutex
	cfg  Config
	ring []sample
	n    int // samples ever observed
	last Status
}

// New validates cfg, applies defaults, and returns an engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("slo: no targets")
	}
	seen := map[string]bool{}
	for _, t := range cfg.Targets {
		if t.Name == "" {
			return nil, fmt.Errorf("slo: target with empty name")
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("slo: duplicate target %q", t.Name)
		}
		seen[t.Name] = true
		if !(t.Objective > 0 && t.Objective < 1) {
			return nil, fmt.Errorf("slo: target %q objective %v outside (0, 1)", t.Name, t.Objective)
		}
		if t.SLI == nil {
			return nil, fmt.Errorf("slo: target %q has no SLI", t.Name)
		}
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = DefaultFastWindow
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = DefaultSlowWindow
	}
	if cfg.FastWindow > cfg.SlowWindow {
		return nil, fmt.Errorf("slo: fast window %v exceeds slow window %v", cfg.FastWindow, cfg.SlowWindow)
	}
	slots := int(cfg.SlowWindow/cfg.SampleEvery) + 2
	e := &Engine{
		cfg:  cfg,
		ring: make([]sample, slots),
	}
	k := len(cfg.Targets)
	for i := range e.ring {
		e.ring[i] = sample{good: make([]int64, k), tot: make([]int64, k)}
	}
	e.last = Status{
		FastWindowSeconds: cfg.FastWindow.Seconds(),
		SlowWindowSeconds: cfg.SlowWindow.Seconds(),
		Targets:           make([]TargetStatus, k),
	}
	for i, t := range cfg.Targets {
		e.last.Targets[i] = TargetStatus{Name: t.Name, Objective: t.Objective}
	}
	return e, nil
}

// Observe records one cumulative sample at time now and re-evaluates
// every target. The caller supplies now so tests can drive virtual time;
// the daemon passes time.Now(). Calls must be time-ordered.
func (e *Engine) Observe(now time.Time, s stream.Summary) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := &e.ring[e.n%len(e.ring)]
	cur.t = now
	for i, t := range e.cfg.Targets {
		cur.good[i], cur.tot[i] = t.SLI(s)
	}
	e.n++
	e.last.Time = now
	for i, t := range e.cfg.Targets {
		ts := &e.last.Targets[i]
		ts.Good, ts.Total = cur.good[i], cur.tot[i]
		ts.FastErrorRate = e.windowErrorRate(i, now, e.cfg.FastWindow)
		ts.SlowErrorRate = e.windowErrorRate(i, now, e.cfg.SlowWindow)
		budget := 1 - t.Objective
		ts.FastBurnRate = ts.FastErrorRate / budget
		ts.SlowBurnRate = ts.SlowErrorRate / budget
		ts.Breaching = ts.FastBurnRate >= DefaultFastBurn
		ts.Warning = ts.SlowBurnRate >= DefaultSlowBurn
	}
}

// windowErrorRate computes target i's error rate over the trailing
// window ending at now: the delta of (good, total) against the newest
// retained sample at least window old — or the oldest retained sample
// while the ring is still warming up, so a young engine reports over
// whatever history it has rather than nothing.
func (e *Engine) windowErrorRate(i int, now time.Time, window time.Duration) float64 {
	cutoff := now.Add(-window)
	size := len(e.ring)
	oldest := e.n - size
	if oldest < 0 {
		oldest = 0
	}
	// Newest sample (excluding the one just written) at or before the
	// cutoff; the scan is oldest-first and stops at the first newer one.
	base := -1
	for k := oldest; k < e.n-1; k++ {
		if e.ring[k%size].t.After(cutoff) {
			break
		}
		base = k
	}
	if base < 0 {
		base = oldest
	}
	if base == e.n-1 {
		// Only one sample ever: no interval to evaluate.
		return 0
	}
	b, c := &e.ring[base%size], &e.ring[(e.n-1)%size]
	dTot := c.tot[i] - b.tot[i]
	if dTot <= 0 {
		return 0
	}
	dGood := c.good[i] - b.good[i]
	bad := dTot - dGood
	if bad <= 0 {
		return 0
	}
	return float64(bad) / float64(dTot)
}

// Status returns a copy of the latest evaluation. Safe to call from any
// goroutine.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.last
	out.Targets = append([]TargetStatus(nil), e.last.Targets...)
	return out
}

// Breaching returns the names of targets currently in fast-burn breach,
// in configuration order (nil when healthy). Safe to call from any
// goroutine.
func (e *Engine) Breaching() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var names []string
	for _, t := range e.last.Targets {
		if t.Breaching {
			names = append(names, t.Name)
		}
	}
	return names
}
