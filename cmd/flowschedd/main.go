// Command flowschedd runs the streaming scheduler as a long-running
// HTTP/JSON service: flows arrive over the network, drain through the
// streaming runtime under a native streaming policy, and the service
// exposes live metrics and a graceful drain.
//
// Endpoints:
//
//	POST /flows    ingest a batch: {"flows":[{"in":0,"out":1,"demand":1},...]} (at most 1 MiB, else 413)
//	GET  /metrics  Prometheus text exposition: runtime, ingest counters, phase histograms, SLO burn rates, pilot gauges
//	GET  /snapshot current stream.Summary as JSON
//	GET  /trace    flight recorder: last rounds as JSONL (?last=N)
//	GET  /slo      burn-rate engine state as JSON
//	GET  /pilot    live competitive-ratio estimates (404 unless -pilotevery > 0)
//	GET  /healthz  {"status":"ok"}; "degraded" (200) on SLO fast-burn breach; "draining" (503)
//	POST /drain    graceful shutdown: finish the backlog, return the final summary
//	POST /checkpoint  write a checkpoint now (needs -checkpoint)
//	POST /reload   swap policy/admission live: {"policy":"OldestFirst","admit":"drop","max_pending":64}
//
// Example session:
//
//	flowschedd -addr :8080 -ports 16 -policy OldestFirst -admit drop -maxpending 4096 -slobound 64 &
//	curl -s -X POST localhost:8080/flows -d '{"flows":[{"in":0,"out":1,"demand":1}]}'
//	curl -s localhost:8080/metrics | grep flowsched_slo
//	curl -s localhost:8080/trace?last=64
//	curl -s -X POST localhost:8080/drain
//
// POST /flows bodies in exactly that shape — one "flows" member, flow
// members "in", "out", "demand" (and an ignored "release") in lower case
// and any order, plain integer values, any JSON whitespace — are decoded
// in one pass. Any other valid JSON encoding/json would accept (other
// key case, extra members, 1e0 for 1, trailing data) is accepted too, on
// a several times slower path; flowsched_ingest_decode_fallback_total on
// /metrics counts those bodies.
//
// Crash safety: -checkpoint FILE persists quiescent checkpoints (atomic,
// CRC-sealed) on POST /checkpoint, every -checkpointevery, and after the
// final drain; -restore FILE resumes from one — the pending set is
// resident again, with original releases, and counters continue before
// the listener serves its first request, so accounting and response
// quantiles are continuous across a kill -9. A restore adopts
// the checkpoint's policy/shards/maxpending/admit/deadline (and switch
// shape) unless the matching flag is given explicitly. A corrupt or
// truncated checkpoint is refused with a typed error before anything
// starts.
//
// SIGINT/SIGTERM trigger the same graceful drain as POST /drain (writing
// a final checkpoint when -checkpoint is set); SIGHUP re-applies the
// command-line scheduling flags as a live reload. The final summary is
// printed to stdout, and the process exits 0 on a clean drain.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flowsched/internal/chkpt"
	"flowsched/internal/daemon"
	"flowsched/internal/obs"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// uniformShape reports the checkpoint's switch as (ports, capacity) when
// it is square with one uniform per-port capacity — the only shape the
// -ports/-cap flags can express. Anything else keeps the flag values and
// lets the daemon's compatibility check explain the mismatch.
func uniformShape(ck *chkpt.Checkpoint) (n, c int, uniform bool) {
	if len(ck.InCaps) == 0 || len(ck.InCaps) != len(ck.OutCaps) {
		return 0, 0, false
	}
	c = ck.InCaps[0]
	for _, v := range ck.InCaps {
		if v != c {
			return 0, 0, false
		}
	}
	for _, v := range ck.OutCaps {
		if v != c {
			return 0, 0, false
		}
	}
	return len(ck.InCaps), c, true
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the daemon on the command line args: the final summary goes to
// stdout, everything else to stderr, and it returns the exit status — 2
// for a flag value it cannot run with, 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		ports       = fs.Int("ports", 16, "switch size m (m x m ports)")
		capacity    = fs.Int("cap", 1, "per-port capacity")
		policy      = fs.String("policy", "RoundRobin", fmt.Sprintf("streaming policy, one of %v (the paper's heuristics run bridged, at one shard)", stream.AllNames()))
		shards      = fs.Int("shards", 1, "shards the input ports are partitioned across, which take turns each round on one goroutine (at least 1, capped at -ports; > 1 needs a native policy and changes the schedule)")
		maxPending  = fs.Int("maxpending", stream.DefaultMaxPending, "admission limit on the resident pending set")
		admit       = fs.String("admit", "lossless", "admission mode: lossless, drop, or deadline")
		deadline    = fs.Int("deadline", 0, "response-time bound in rounds (admit mode deadline)")
		verifyEvery = fs.Int("verifyevery", 0, "spot-check window in rounds fed to the verify oracle (0 = off)")
		buffer      = fs.Int("buffer", daemon.DefaultBuffer, "ingest queue depth in flows between HTTP handlers and the round loop")

		traceRounds = fs.Int("tracerounds", 0, "flight recorder ring size behind GET /trace (0 = default)")
		sloBound    = fs.Int("slobound", 0, "response-time SLO bound in rounds; enables the response_within_bound target (0 = delivery target only)")
		sloObj      = fs.Float64("sloobjective", 0, "good-event fraction the SLO targets aim for, in (0,1) (0 = default)")
		sloEvery    = fs.Duration("sloevery", 0, "burn-rate engine sample cadence (0 = default)")
		sloFast     = fs.Duration("slofast", 0, "fast burn-rate window (0 = default)")
		sloSlow     = fs.Duration("sloslow", 0, "slow burn-rate window (0 = default)")
		pilotEvery  = fs.Duration("pilotevery", 0, "optimality pilot evaluation cadence (0 = pilot off)")
		pilotWindow = fs.Int("pilotwindow", 0, "pilot completion window in flows (0 = default)")
		pprofAddr   = fs.String("pprof", "", "side listener for net/http/pprof (empty = off)")

		ckptPath  = fs.String("checkpoint", "", "checkpoint file: written on POST /checkpoint, every -checkpointevery, and after the final drain")
		ckptEvery = fs.Duration("checkpointevery", 0, "periodic checkpoint cadence (0 = on-demand and drain only; needs -checkpoint)")
		restore   = fs.String("restore", "", "resume from this checkpoint file (its policy/shards/admission/switch settings apply unless overridden by explicit flags)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has said why
	}
	// fail reports why the daemon stops and returns the exit status.
	fail := func(status int, format string, args ...any) int {
		fmt.Fprintf(stderr, "flowschedd: "+format+"\n", args...)
		return status
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var restoreCk *chkpt.Checkpoint
	if *restore != "" {
		ck, err := chkpt.Load(*restore)
		if err != nil {
			return fail(1, "%v", err)
		}
		// The checkpoint's configuration is the default on restore; an
		// explicit flag deliberately deviates from it (a reload-on-restart).
		if err := ck.AdoptFlags(fs); err != nil {
			return fail(1, "%v", err)
		}
		if n, c, uniform := uniformShape(ck); uniform {
			if !explicit["ports"] {
				*ports = n
			}
			if !explicit["cap"] {
				*capacity = c
			}
		}
		restoreCk = ck
	}
	// After adoption, so a checkpoint's shard count and admission limit
	// are held to the same rule as typed ones.
	switch {
	case *shards < 1:
		return fail(2, "-shards must be at least 1, got %d", *shards)
	case *maxPending < 1:
		return fail(2, "-maxpending must be at least 1, got %d", *maxPending)
	case *buffer < 1:
		return fail(2, "-buffer must be at least 1, got %d", *buffer)
	case *verifyEvery < 0:
		return fail(2, "-verifyevery must not be negative, got %d", *verifyEvery)
	case *ckptEvery < 0:
		return fail(2, "-checkpointevery must not be negative, got %v", *ckptEvery)
	case *traceRounds < 0 || *traceRounds > obs.MaxRecords:
		return fail(2, "-tracerounds must be in [0, %d], got %d", obs.MaxRecords, *traceRounds)
	case *pilotWindow < 0 || *pilotWindow > obs.MaxRecords:
		return fail(2, "-pilotwindow must be in [0, %d], got %d", obs.MaxRecords, *pilotWindow)
	case !(*sloObj >= 0 && *sloObj < 1):
		return fail(2, "-sloobjective must be in [0, 1), got %v", *sloObj)
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{{"sloevery", *sloEvery}, {"slofast", *sloFast}, {"sloslow", *sloSlow}, {"pilotevery", *pilotEvery}} {
		if f.d < 0 {
			return fail(2, "-%s must not be negative, got %v", f.name, f.d)
		}
	}

	pol := stream.ByName(*policy)
	if pol == nil {
		return fail(2, "unknown policy %q (streaming policies: %v)", *policy, stream.AllNames())
	}
	mode, err := stream.ParseAdmitMode(*admit)
	if err != nil {
		return fail(2, "%v", err)
	}
	srv, err := daemon.New(daemon.Config{
		Switch:      switchnet.NewSwitch(*ports, *ports, *capacity),
		Policy:      pol,
		Shards:      *shards,
		MaxPending:  *maxPending,
		Admit:       mode,
		Deadline:    *deadline,
		VerifyEvery: *verifyEvery,
		Buffer:      *buffer,

		TraceRounds:    *traceRounds,
		ResponseBound:  *sloBound,
		SLOObjective:   *sloObj,
		SLOSampleEvery: *sloEvery,
		SLOFastWindow:  *sloFast,
		SLOSlowWindow:  *sloSlow,
		PilotEvery:     *pilotEvery,
		PilotWindow:    *pilotWindow,

		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Restore:         restoreCk,
	})
	if err != nil {
		return fail(1, "%v", err)
	}
	if restoreCk != nil {
		fmt.Fprintf(stderr, "flowschedd: restored %s: resumed at round %d, %d pending, %d shards\n",
			*restore, restoreCk.Round, restoreCk.Pending, srv.Snapshot().Shards)
	}
	srv.Start()

	if *pprofAddr != "" {
		// The pprof handlers self-register on http.DefaultServeMux; keep
		// them off the service listener so profiling never rides the same
		// socket as ingest.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(stderr, "flowschedd: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "flowschedd: pprof on %s/debug/pprof/\n", *pprofAddr)
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// A client that stalls mid-request or idles on a keep-alive
		// connection gives its goroutine and socket back. No WriteTimeout:
		// POST /drain legitimately answers as late as the backlog drains.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	fmt.Fprintf(stderr, "flowschedd: listening on %s (%dx%d switch, policy %s, admit %s)\n",
		*addr, *ports, *ports, pol.Name(), mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sig)
	// The loop ends on a drain or a failure; either way the listener is
	// shut down below before run returns.
loop:
	for {
		select {
		case s := <-sig:
			if s == syscall.SIGHUP {
				// Live reload back to the command-line configuration — the
				// way to revert a restore-adopted or HTTP-reloaded config
				// without dropping the pending set.
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := srv.Reload(ctx, stream.ReloadConfig{
					Policy:     pol,
					MaxPending: *maxPending,
					Admit:      mode,
					Deadline:   *deadline,
				})
				cancel()
				if err != nil {
					fmt.Fprintf(stderr, "flowschedd: SIGHUP reload: %v\n", err)
				} else {
					fmt.Fprintf(stderr, "flowschedd: SIGHUP: reloaded policy %s, admit %s, maxpending %d\n",
						pol.Name(), mode, *maxPending)
				}
				continue
			}
			fmt.Fprintf(stderr, "flowschedd: %v: draining\n", s)
			_, err = srv.Drain()
			break loop
		case <-srv.Done():
			// Drained via POST /drain (or the run failed).
			break loop
		case err = <-httpErr:
			break loop
		}
	}

	// Let an in-flight /drain response finish before closing the listener.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "flowschedd: http shutdown: %v\n", err)
	}
	if err != nil {
		return fail(1, "%v", err)
	}
	sum, err := srv.Wait()
	if err != nil {
		return fail(1, "%v", err)
	}
	out, _ := json.MarshalIndent(sum, "", "  ")
	fmt.Fprintln(stdout, string(out))
	return 0
}
