// Package pilot turns the paper's offline lower bounds into live
// telemetry: a background evaluator that periodically rebuilds a bounded
// sub-instance from the runtime's recent completions, recomputes the
// combinatorial lower bounds on total and maximum response time
// (internal/core's SRPT fluid relaxation and per-port backlog bound),
// and publishes achieved/lower-bound competitive-ratio estimates.
//
// The ratios are sound, not just indicative: the runtime's actual
// schedule restricted to any subset of flows is feasible for the
// sub-instance over that subset (same switch, same releases, a subset of
// each round's port loads), so the achieved response totals over a
// completion window are at least the sub-instance's optimum, which is at
// least the recomputed lower bound — the published ratio is therefore
// always >= 1, with equality witnessing an optimal stretch.
//
// Cost model: the evaluator is fully off the hot path. Completions reach
// it through an OnSchedule hook that stores four words into an obs.Ring
// (no locks, no allocations, coordinator-side cost of a few nanoseconds
// per flow); the pending set is snapshotted between rounds
// through Runtime.PendingFlows, which costs the coordinator one walk of
// the pending list per evaluation — not per round; and the bound
// recomputation (O(window^2 / ports) worst case for the backlog bound,
// an SRPT sweep for the fluid bound) runs entirely on the pilot
// goroutine at the configured cadence.
package pilot

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"flowsched/internal/core"
	"flowsched/internal/obs"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// Defaults for Config fields left zero, and the snapshot bounds.
// DefaultSnapshotTimeout bounds each pending-set snapshot. A runtime
// parked idle on a Parker source is woken to answer at once, so the
// timeout only guards a coordinator stuck in a long round or blocked in
// the Next of a source without Park; the pilot counts it in
// SnapshotErrors rather than waiting on it. DefaultMaxSnapshot caps the
// pending flows fed to the
// backlog bound. The snapshot is in admission order, so the prefix kept
// is the oldest flows; the bound over it is still a valid lower bound
// for the whole backlog, and the cap keeps the O(n^2) sweep bounded when
// the resident set is huge.
const (
	DefaultWindow          = 2048
	DefaultEvery           = time.Second
	DefaultSnapshotTimeout = 100 * time.Millisecond
	DefaultMaxSnapshot     = 4096
)

// compWords is the completion ring's per-record word count: packed
// ports, demand, release, completion round.
const compWords = 4

// Config tunes a Pilot.
type Config struct {
	// Window is the number of most-recent completions each evaluation
	// rebuilds its sub-instance from (<= 0 selects DefaultWindow; above
	// obs.MaxRecords, New refuses it).
	Window int
	// Every is Run's evaluation cadence (<= 0 selects DefaultEvery).
	Every time.Duration
}

// Status is the pilot's latest evaluation.
type Status struct {
	// Evaluations counts completed evaluations; SnapshotErrors the
	// pending-set snapshots that timed out or were cancelled.
	Evaluations    int64 `json:"evaluations"`
	SnapshotErrors int64 `json:"snapshot_errors"`
	// WindowFlows is the completion window the ratios were computed
	// over (0 = no completions yet; the ratios are then meaningless and
	// zero). LastRound is the newest completion round in the window.
	WindowFlows int   `json:"window_flows"`
	LastRound   int64 `json:"last_round"`
	// Achieved response metrics of the window, and the recomputed lower
	// bounds for the same sub-instance.
	AchievedTotalResponse int64 `json:"achieved_total_response"`
	AchievedMaxResponse   int   `json:"achieved_max_response"`
	TotalLowerBound       int   `json:"total_lower_bound"`
	MaxLowerBound         int   `json:"max_lower_bound"`
	// TotalRatio and MaxRatio are the live competitive-ratio estimates:
	// achieved / lower bound, always >= 1 when WindowFlows > 0.
	TotalRatio float64 `json:"total_response_ratio"`
	MaxRatio   float64 `json:"max_response_ratio"`
	// Pending-set view from the latest successful snapshot:
	// BacklogBoundRounds is the backlog lower bound on the rounds any
	// scheduler needs to clear it (0 = empty).
	PendingFlows       int  `json:"pending_flows"`
	PendingTruncated   bool `json:"pending_truncated"`
	BacklogBoundRounds int  `json:"backlog_bound_rounds"`
}

// Pilot computes live optimality telemetry; construct with New, hand
// OnSchedule to stream.Config, Bind the runtime, then drive Run (or
// Evaluate directly). Status may be called from any goroutine.
type Pilot struct {
	sw  switchnet.Switch
	cfg Config
	rt  *stream.Runtime

	// ring holds the last Window completions, compWords words each, under
	// obs.Ring's lap-and-drop protocol: the coordinator's OnSchedule is
	// its writer, Evaluate its reader.
	ring *obs.Ring

	mu sync.Mutex
	st Status

	// Evaluator scratch, reused across evaluations.
	comps []completion
	flows []switchnet.Flow
	pend  []switchnet.Flow
}

// completion is one ring record: a flow and the round it was scheduled
// in.
type completion struct {
	flow  switchnet.Flow
	round int64
}

// New validates cfg and returns a pilot for runtimes over sw.
func New(sw switchnet.Switch, cfg Config) (*Pilot, error) {
	if sw.NumIn() == 0 || sw.NumOut() == 0 {
		return nil, fmt.Errorf("pilot: switch has no ports (%d x %d)", sw.NumIn(), sw.NumOut())
	}
	if sw.NumIn() > 1<<15 || sw.NumOut() > 1<<15 {
		return nil, fmt.Errorf("pilot: switch %d x %d exceeds %d ports per side (packed ring fields)", sw.NumIn(), sw.NumOut(), 1<<15)
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	ring, err := obs.NewRing(cfg.Window, compWords)
	if err != nil {
		return nil, fmt.Errorf("pilot: window: %w", err)
	}
	return &Pilot{sw: sw, cfg: cfg, ring: ring}, nil
}

// OnSchedule is the completion hook for stream.Config.OnSchedule: it
// records one completion into the ring with four atomic word stores and
// no allocations. Single writer (the runtime's coordinator) only.
func (p *Pilot) OnSchedule(seq int64, f switchnet.Flow, round int) {
	w := (*[compWords]atomic.Int64)(p.ring.Slot())
	w[0].Store(int64(f.In)<<16 | int64(f.Out))
	w[1].Store(int64(f.Demand))
	w[2].Store(int64(f.Release))
	w[3].Store(int64(round))
	p.ring.Publish()
}

// Bind attaches the runtime whose pending set Evaluate snapshots. It
// exists because construction is circular: stream.New needs the
// OnSchedule hook, and the pilot needs the built runtime.
func (p *Pilot) Bind(rt *stream.Runtime) { p.rt = rt }

// decodeCompletion loads one completion's words in OnSchedule's layout.
func decodeCompletion(words []atomic.Int64) completion {
	w := (*[compWords]atomic.Int64)(words)
	ports := w[0].Load()
	return completion{
		flow: switchnet.Flow{
			In:      int(ports >> 16),
			Out:     int(ports & 0xffff),
			Demand:  int(w[1].Load()),
			Release: int(w[2].Load()),
		},
		round: w[3].Load(),
	}
}

// Evaluate performs one evaluation — completion-window ratios plus a
// pending-set backlog bound — and returns the updated status. ctx
// bounds the pending-set snapshot (further capped by DefaultSnapshotTimeout);
// the ratio computation itself never blocks on the runtime.
func (p *Pilot) Evaluate(ctx context.Context) Status {
	p.comps = obs.ReadLast(p.ring, p.comps[:0], p.ring.Cap(), decodeCompletion)
	p.flows = p.flows[:0]
	var (
		achievedTotal int64
		achievedMax   int
		lastRound     int64
	)
	for _, c := range p.comps {
		p.flows = append(p.flows, c.flow)
		resp := c.round + 1 - int64(c.flow.Release)
		achievedTotal += resp
		if int(resp) > achievedMax {
			achievedMax = int(resp)
		}
		if c.round > lastRound {
			lastRound = c.round
		}
	}
	totalLB, maxLB := 0, 0
	totalRatio, maxRatio := 0.0, 0.0
	if len(p.flows) > 0 {
		inst := &switchnet.Instance{Switch: p.sw, Flows: p.flows}
		totalLB = core.SRPTLowerBound(inst)
		maxLB = core.TrivialMRTLowerBound(inst)
		// Both bounds are >= 1 for a non-empty instance, so the ratios
		// are finite; feasibility of the restricted schedule makes them
		// >= 1 (see the package docs).
		totalRatio = float64(achievedTotal) / float64(totalLB)
		maxRatio = float64(achievedMax) / float64(maxLB)
	}

	p.mu.Lock()
	st := &p.st
	st.Evaluations++
	st.WindowFlows = len(p.flows)
	st.LastRound = lastRound
	st.AchievedTotalResponse = achievedTotal
	st.AchievedMaxResponse = achievedMax
	st.TotalLowerBound = totalLB
	st.MaxLowerBound = maxLB
	st.TotalRatio = totalRatio
	st.MaxRatio = maxRatio
	p.mu.Unlock()

	if p.rt != nil {
		sctx, cancel := context.WithTimeout(ctx, DefaultSnapshotTimeout)
		pend, _, err := p.rt.PendingFlows(sctx, p.pend)
		cancel()
		p.mu.Lock()
		if err != nil {
			p.st.SnapshotErrors++
		} else {
			p.pend = pend
			p.st.PendingFlows = len(pend)
			p.st.PendingTruncated = len(pend) > DefaultMaxSnapshot
			if p.st.PendingTruncated {
				pend = pend[:DefaultMaxSnapshot]
			}
			if len(pend) > 0 {
				p.st.BacklogBoundRounds = core.TrivialMRTLowerBound(&switchnet.Instance{Switch: p.sw, Flows: pend})
			} else {
				p.st.BacklogBoundRounds = 0
			}
		}
		p.mu.Unlock()
	}
	return p.Status()
}

// Run evaluates at the configured cadence until ctx is cancelled, then
// performs one final evaluation (detached from ctx, so a post-run
// pending read still lands) and returns.
func (p *Pilot) Run(ctx context.Context) {
	tick := time.NewTicker(p.cfg.Every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			p.Evaluate(context.Background())
			return
		case <-tick.C:
			p.Evaluate(ctx)
		}
	}
}

// Status returns a copy of the latest evaluation. Safe to call from any
// goroutine.
func (p *Pilot) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// Sane reports whether the published ratios satisfy the soundness
// invariant — finite and at least 1 whenever a window exists. Exposed
// for tests and the daemon's smoke assertions.
func (s Status) Sane() bool {
	if s.WindowFlows == 0 {
		return s.TotalRatio == 0 && s.MaxRatio == 0
	}
	return s.TotalRatio >= 1 && s.MaxRatio >= 1 &&
		!math.IsInf(s.TotalRatio, 0) && !math.IsInf(s.MaxRatio, 0) &&
		!math.IsNaN(s.TotalRatio) && !math.IsNaN(s.MaxRatio)
}
