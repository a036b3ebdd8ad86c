// Package daemon stands the streaming scheduler runtime up as a
// long-running HTTP/JSON service: flows arrive over the network
// (POST /flows, batched), feed the runtime through a concurrently-fed
// ChanSource, and drain under a native streaming policy while the
// service exposes live observability — GET /metrics (Prometheus text
// fed from the lock-free Snapshot path, including the ingest edge's
// counters, SLO burn rates, per-phase timing histograms, and the
// optimality pilot's gauges),
// GET /snapshot (the JSON Summary), GET /trace (the flight recorder's
// per-round JSONL), GET /slo (burn-rate state), GET /pilot (live
// competitive-ratio estimates), GET /healthz ("ok", "degraded" or
// "draining") — and a graceful shutdown path (POST /drain: refuse new
// ingest, finish every pending flow, report the final accounting).
//
// The service is crash-safe when configured with a checkpoint path: the
// runtime's quiescent-point snapshots are written as atomic, CRC-sealed
// files (internal/chkpt) on a wall-clock cadence, on POST /checkpoint,
// and once more after a graceful drain, and Config.Restore resumes a new
// server from one — the pending set is resident again, with original
// releases, and the cumulative counters continue from the checkpointed
// baselines by the time New returns, so accounting and response
// quantiles are continuous across a kill -9 and a restored server is
// healthy, checkpointable and reloadable from its first request.
// POST /reload swaps the scheduling policy and admission settings
// between rounds without dropping the pending set.
//
// The ingest edge is built to cost about what the round loop does. A
// POST /flows body (at most 1 MiB; 413 beyond) of the canonical shape
//
//	{"flows":[{"in":0,"out":1,"demand":1},...]}
//
// — the one member "flows"; flow members "in", "out", "demand" and an
// ignored "release", lower case, any order; plain integers; whitespace
// anywhere JSON allows — is decoded in a single pass into a pooled
// scratch slice, validated whole, and pushed to the feed in one call,
// which copies it into slabs the feed recycles: one synchronisation per
// 256 flows, not per flow, and no allocation that grows with the batch. Every other body goes
// through encoding/json exactly as it always did, so anything that
// decoder accepts (other key case, unknown members, 1e0, trailing data)
// is still accepted, several times slower, and its errors still word the
// 400. flowsched_ingest_decode_fallback_total says how much traffic that
// is. A handler blocked on a full feed (lossless backpressure) gives up
// with 503 when its client does.
//
// The split of responsibilities: cmd/flowschedd owns flags, listening
// sockets, and signals; this package owns everything between an
// http.Handler and the runtime — ingest validation and gating, the
// drain protocol, and metrics encoding — so tests drive the full
// service through httptest without a process or a port.
package daemon

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"flowsched/internal/chkpt"
	"flowsched/internal/obs"
	"flowsched/internal/pilot"
	"flowsched/internal/slo"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// DefaultBuffer is the ingest queue depth when Config.Buffer is zero;
// DefaultSLOObjective the good fraction both SLO targets default to.
const (
	DefaultBuffer       = 4096
	DefaultSLOObjective = 0.999
)

// Config assembles a Server. Switch, Policy, Shards, MaxPending, Admit,
// Deadline, VerifyEvery, and ResponseBound pass through to the runtime's
// stream.Config (and are validated there); Buffer sets the ingest queue
// depth between the HTTP handlers and the round loop; the rest tunes the
// observability layer.
type Config struct {
	Switch      switchnet.Switch
	Policy      stream.Policy
	Shards      int
	MaxPending  int
	Admit       stream.AdmitMode
	Deadline    int
	VerifyEvery int
	Buffer      int

	// TraceRounds sizes the flight recorder ring behind GET /trace and
	// the phase histograms (zero selects obs.DefaultRounds; New refuses
	// a negative value and one above obs.MaxRecords).
	TraceRounds int
	// ResponseBound, when > 0, defines the response-time objective in
	// rounds: completions slower than it count against the
	// "response_within_bound" SLO target. Zero disables that target
	// (the delivery target always runs).
	ResponseBound int
	// SLOObjective is the good-event fraction both targets aim for,
	// in (0, 1); zero selects DefaultSLOObjective.
	SLOObjective float64
	// SLOSampleEvery, SLOFastWindow, SLOSlowWindow tune the burn-rate
	// engine's sampler and windows (zero selects the slo package
	// defaults).
	SLOSampleEvery time.Duration
	SLOFastWindow  time.Duration
	SLOSlowWindow  time.Duration
	// PilotEvery > 0 enables the optimality pilot at that evaluation
	// cadence (zero leaves it off); PilotWindow sets its completion
	// window (zero selects the pilot package default).
	//
	// New refuses a negative value in any of the observability settings
	// above rather than reading it as "default" or "off".
	PilotEvery  time.Duration
	PilotWindow int

	// CheckpointPath, when non-empty, enables durable checkpoints: the
	// server writes a chkpt file there atomically on POST /checkpoint,
	// every CheckpointEvery (when > 0), and once more after a graceful
	// drain.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint cadence; it requires
	// CheckpointPath. Zero disables the periodic writer (explicit and
	// drain checkpoints still work); a negative cadence is refused.
	CheckpointEvery time.Duration
	// Restore, when non-nil, resumes the runtime from a loaded (and
	// already CRC-verified) checkpoint instead of starting empty: its
	// switch shape must match Switch, its pending flows are resident with
	// their original releases when New returns, ahead of any new ingest,
	// and the counters continue from the checkpointed baselines. The scheduling fields
	// (Policy, MaxPending, Admit, Deadline) are NOT adopted from the
	// checkpoint — the caller decides whether to keep or override them.
	Restore *chkpt.Checkpoint
}

// Server couples one runtime, its live ingest source, and the HTTP
// surface over both. Lifecycle: New, Start, serve Handler, then Drain
// (graceful) or Stop (hard) — each returns the final Summary.
type Server struct {
	sw  switchnet.Switch
	src *workload.ChanSource
	rt  *stream.Runtime
	mux *http.ServeMux

	// Observability layer: the flight recorder behind /trace and the
	// phase histograms, the burn-rate engine behind /slo and healthz
	// degradation, and (optionally) the optimality pilot behind /pilot.
	rec         *obs.FlightRecorder
	slo         *slo.Engine
	pilot       *pilot.Pilot
	sampleEvery time.Duration

	// mu guards the draining flag and its handshake with the ingest
	// WaitGroup: a handler only joins the group while not draining, so
	// after Drain flips the flag, ingest.Wait covers every Push that will
	// ever happen.
	mu       sync.Mutex
	draining bool
	ingest   sync.WaitGroup
	stats    ingestStats

	startOnce sync.Once
	drainOnce sync.Once
	runDone   chan struct{}
	// sampleDone and pilotDone close when the sampler and pilot
	// goroutines have taken their final observation after the round loop
	// ended; Wait joins them so post-drain scrapes are settled.
	sampleDone chan struct{}
	pilotDone  chan struct{}
	sum        *stream.Summary
	runErr     error

	// ckptMu serializes checkpoint writes and reloads: a checkpoint
	// records the live scheduling configuration (schedCfg) alongside the
	// runtime state, and a reload swaps that configuration, so the two
	// must not interleave.
	ckptMu    sync.Mutex
	schedCfg  stream.Config
	ckptPath  string
	ckptEvery time.Duration
	ckptDone  chan struct{}
	// Checkpoint health counters behind /metrics (guarded by ckptMu).
	ckptWrites    int64
	ckptErrors    int64
	ckptLastRound int64
	// finalCkptErr records a failed post-drain checkpoint write; set
	// inside drainOnce, read only after it (Drain surfaces it when the
	// run itself succeeded).
	finalCkptErr error
}

// New builds a Server; the runtime configuration is validated eagerly.
func New(cfg Config) (*Server, error) {
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	switch {
	case cfg.TraceRounds < 0:
		return nil, fmt.Errorf("daemon: TraceRounds %d is negative", cfg.TraceRounds)
	case cfg.SLOObjective < 0:
		return nil, fmt.Errorf("daemon: SLOObjective %v is negative", cfg.SLOObjective)
	case cfg.SLOSampleEvery < 0:
		return nil, fmt.Errorf("daemon: SLOSampleEvery %v is negative", cfg.SLOSampleEvery)
	case cfg.SLOFastWindow < 0:
		return nil, fmt.Errorf("daemon: SLOFastWindow %v is negative", cfg.SLOFastWindow)
	case cfg.SLOSlowWindow < 0:
		return nil, fmt.Errorf("daemon: SLOSlowWindow %v is negative", cfg.SLOSlowWindow)
	case cfg.PilotEvery < 0:
		return nil, fmt.Errorf("daemon: PilotEvery %v is negative", cfg.PilotEvery)
	case cfg.PilotWindow < 0:
		return nil, fmt.Errorf("daemon: PilotWindow %d is negative", cfg.PilotWindow)
	case cfg.CheckpointEvery < 0:
		return nil, fmt.Errorf("daemon: CheckpointEvery %v is negative", cfg.CheckpointEvery)
	}
	if cfg.SLOObjective == 0 {
		cfg.SLOObjective = DefaultSLOObjective
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("daemon: CheckpointEvery %v set without a CheckpointPath", cfg.CheckpointEvery)
	}
	if cfg.Restore != nil {
		if err := cfg.Restore.Validate(); err != nil {
			return nil, fmt.Errorf("daemon: restore: %w", err)
		}
		if err := cfg.Restore.Compatible(cfg.Switch); err != nil {
			return nil, fmt.Errorf("daemon: restore: %w", err)
		}
	}
	if cfg.TraceRounds > obs.MaxRecords {
		return nil, fmt.Errorf("daemon: TraceRounds %d exceeds obs.MaxRecords (%d)", cfg.TraceRounds, obs.MaxRecords)
	}
	rec := obs.NewFlightRecorder(cfg.TraceRounds)
	var pi *pilot.Pilot
	var onSchedule func(seq int64, f switchnet.Flow, round int)
	if cfg.PilotEvery > 0 {
		var err error
		pi, err = pilot.New(cfg.Switch, pilot.Config{
			Window: cfg.PilotWindow,
			Every:  cfg.PilotEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("daemon: %w", err)
		}
		onSchedule = pi.OnSchedule
	}
	src := workload.NewChanSource(cfg.Buffer)
	scfg := stream.Config{
		Switch:        cfg.Switch,
		Policy:        cfg.Policy,
		Shards:        cfg.Shards,
		MaxPending:    cfg.MaxPending,
		Admit:         cfg.Admit,
		Deadline:      cfg.Deadline,
		VerifyEvery:   cfg.VerifyEvery,
		Recorder:      rec,
		ResponseBound: cfg.ResponseBound,
		OnSchedule:    onSchedule,
	}
	// On a restore the checkpointed pending set (plus its lookahead flow,
	// if any) is resident, with original releases, when stream.New
	// returns: the live feed carries only what is ingested after it.
	if cfg.Restore != nil {
		scfg.Resume = cfg.Restore.State()
	}
	rt, err := stream.New(src, scfg)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	if pi != nil {
		pi.Bind(rt)
	}
	// The delivery target judges shedding (drops and expiries against
	// admissions); the response target judges completions against the
	// configured bound and only exists when a bound is set.
	targets := []slo.Target{{
		Name:      "delivery",
		Objective: cfg.SLOObjective,
		SLI: func(sum stream.Summary) (int64, int64) {
			return sum.Admitted - sum.Dropped - sum.Expired, sum.Admitted
		},
	}}
	if cfg.ResponseBound > 0 {
		targets = append(targets, slo.Target{
			Name:      "response_within_bound",
			Objective: cfg.SLOObjective,
			SLI: func(sum stream.Summary) (int64, int64) {
				return sum.Completed - sum.SlowResponses, sum.Completed
			},
		})
	}
	sloEngine, err := slo.New(slo.Config{
		Targets:     targets,
		SampleEvery: cfg.SLOSampleEvery,
		FastWindow:  cfg.SLOFastWindow,
		SlowWindow:  cfg.SLOSlowWindow,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	sampleEvery := cfg.SLOSampleEvery
	if sampleEvery == 0 {
		sampleEvery = slo.DefaultSampleEvery
	}
	s := &Server{
		sw:          cfg.Switch,
		src:         src,
		rt:          rt,
		mux:         http.NewServeMux(),
		rec:         rec,
		slo:         sloEngine,
		pilot:       pi,
		sampleEvery: sampleEvery,
		runDone:     make(chan struct{}),
		sampleDone:  make(chan struct{}),
		pilotDone:   make(chan struct{}),
		schedCfg:    scfg,
		ckptPath:    cfg.CheckpointPath,
		ckptEvery:   cfg.CheckpointEvery,
		ckptDone:    make(chan struct{}),
	}
	s.mux.HandleFunc("POST /flows", s.handleFlows)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /trace", s.handleTrace)
	s.mux.HandleFunc("GET /slo", s.handleSLO)
	s.mux.HandleFunc("GET /pilot", s.handlePilot)
	s.mux.HandleFunc("POST /drain", s.handleDrain)
	s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /reload", s.handleReload)
	return s, nil
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the runtime's round loop, the SLO sampler, and (when
// enabled) the optimality pilot, each on its own goroutine. Idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		go func() {
			s.sum, s.runErr = s.rt.Run()
			close(s.runDone)
		}()
		go s.sampleLoop()
		if s.ckptPath != "" && s.ckptEvery > 0 {
			go s.checkpointLoop()
		} else {
			close(s.ckptDone)
		}
		if s.pilot != nil {
			go func() {
				ctx, cancel := context.WithCancel(context.Background())
				go func() { <-s.runDone; cancel() }()
				s.pilot.Run(ctx)
				close(s.pilotDone)
			}()
		} else {
			close(s.pilotDone)
		}
	})
}

// sampleLoop feeds the burn-rate engine one cumulative sample per tick,
// plus a final sample once the round loop ends so post-drain state is
// settled.
func (s *Server) sampleLoop() {
	defer close(s.sampleDone)
	t := time.NewTicker(s.sampleEvery)
	defer t.Stop()
	for {
		select {
		case <-s.runDone:
			s.slo.Observe(time.Now(), s.rt.Snapshot())
			return
		case <-t.C:
			s.slo.Observe(time.Now(), s.rt.Snapshot())
		}
	}
}

// Snapshot returns the runtime's current metrics (lock-free with respect
// to the round loop).
func (s *Server) Snapshot() stream.Summary { return s.rt.Snapshot() }

// Done is closed once the round loop has returned (after Drain or Stop).
func (s *Server) Done() <-chan struct{} { return s.runDone }

// Wait blocks until the round loop has returned — and the sampler and
// pilot have taken their final observations — then reports the final
// summary. (Before Start, it blocks until the server is started and
// stopped.)
func (s *Server) Wait() (*stream.Summary, error) {
	<-s.runDone
	<-s.sampleDone
	<-s.pilotDone
	<-s.ckptDone
	return s.sum, s.runErr
}
