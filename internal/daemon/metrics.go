package daemon

import (
	"fmt"
	"io"

	"flowsched/internal/obs"
	"flowsched/internal/pilot"
	"flowsched/internal/slo"
	"flowsched/internal/stream"
)

// writeMetrics encodes a Summary in the Prometheus text exposition
// format (version 0.0.4). Every value comes from the runtime's lock-free
// Snapshot path — atomics plus epoch-window sketches — so a scrape never
// stalls the round loop. Response time is modelled as a summary metric:
// cumulative _sum/_count over every completed flow, quantiles over the
// sliding metrics window.
func writeMetrics(w io.Writer, s stream.Summary) {
	counter := func(name, help string, v int64) { writeCounter(w, name, help, v) }
	gauge := func(name, help string, v float64) { writeGauge(w, name, help, v) }
	counter("flowsched_rounds_total", "Scheduling rounds processed (idle gaps are jumped, not counted).", s.Rounds)
	gauge("flowsched_round", "Current scheduler round (virtual time).", float64(s.Round))
	gauge("flowsched_shards", "Runtime shards the input ports are partitioned across.", float64(s.Shards))
	counter("flowsched_flows_admitted_total", "Flows consumed from the ingest feed, including shed ones.", s.Admitted)
	counter("flowsched_flows_completed_total", "Flows scheduled to completion.", s.Completed)
	counter("flowsched_flows_dropped_total", "Arrivals shed on a full pending set (admit mode drop).", s.Dropped)
	counter("flowsched_flows_expired_total", "Pending flows expired past the deadline (admit mode deadline).", s.Expired)
	counter("flowsched_flows_backpressured_total", "Flows admitted after their release round because the pending set was full.", s.Backpressured)
	gauge("flowsched_pending_flows", "Flows currently resident in the pending set.", float64(s.Pending))
	gauge("flowsched_pending_peak", "High-water mark of the pending set.", float64(s.PeakPending))
	counter("flowsched_verify_windows_total", "Verification windows that checked at least one round; a round the verify oracle rejects ends the run, so every counted round was accepted.", s.WindowsVerified)
	fmt.Fprintf(w, "# HELP flowsched_response_rounds Response time of completed flows in rounds (quantiles over the sliding window, sum/count cumulative).\n")
	fmt.Fprintf(w, "# TYPE flowsched_response_rounds summary\n")
	fmt.Fprintf(w, "flowsched_response_rounds{quantile=\"0.5\"} %g\n", s.P50)
	fmt.Fprintf(w, "flowsched_response_rounds{quantile=\"0.9\"} %g\n", s.P90)
	fmt.Fprintf(w, "flowsched_response_rounds{quantile=\"0.99\"} %g\n", s.P99)
	fmt.Fprintf(w, "flowsched_response_rounds_sum %d\n", s.TotalResponse)
	fmt.Fprintf(w, "flowsched_response_rounds_count %d\n", s.Completed)
	gauge("flowsched_response_rounds_max", "Maximum response time over all completed flows.", float64(s.MaxResponse))
	counter("flowsched_response_slow_total", "Completions whose response time exceeded the configured response bound.", s.SlowResponses)
}

// writeCounter and writeGauge render one unlabelled series with its
// HELP and TYPE lines.
func writeCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// writeIngestMetrics renders the ingest edge: POST /flows requests by
// status, flows handed to the feed, how many bodies missed the one-pass
// decoder, and the feed's depth. A fallback count that keeps pace with
// the request count means clients do not send the canonical body shape
// and every request pays encoding/json.
func (s *Server) writeIngestMetrics(w io.Writer) {
	st := &s.stats
	fmt.Fprintf(w, "# HELP flowsched_ingest_requests_total POST /flows requests by response status.\n# TYPE flowsched_ingest_requests_total counter\n")
	for i, code := range ingestCodes {
		fmt.Fprintf(w, "flowsched_ingest_requests_total{code=\"%d\"} %d\n", code, st.requests[i].Load())
	}
	writeCounter(w, "flowsched_ingest_flows_total", "Flows handed to the ingest feed.", st.flows.Load())
	writeCounter(w, "flowsched_ingest_decode_fallback_total", "POST /flows bodies not in the canonical shape, decoded by encoding/json.", st.fallback.Load())
	writeGauge(w, "flowsched_ingest_feed_flows", "Flows buffered in the ingest feed, accepted and not yet pulled by the round loop.", float64(s.src.Buffered()))
}

// phaseBuckets are the upper bounds (seconds) of the per-phase timing
// histogram: powers of 4 from 1µs to ~1s, wide enough to separate a
// healthy microsecond round from a millisecond stall in few buckets.
var phaseBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
	1024e-6, 4096e-6, 16384e-6, 65536e-6, 262144e-6, 1.048576,
}

// writePhaseMetrics renders flowsched_phase_seconds, a histogram family
// over the per-round phase timings, recomputed from the flight
// recorder's ring at scrape time. The window is therefore the ring's
// capacity, not the process lifetime: the series is a sliding-window
// histogram (counts can go down as rounds age out), which trades
// counter semantics for zero new hot-path instrumentation — the
// recorder's records are the only source. The phases are obs.RoundRecord's:
// "propose" is expire + pick over all shards, "reconcile" the ordering of
// the shards' turns (0 at one shard), "apply" the round's own retirement
// (every round), and "verify" the oracle's check of the record's own
// round (every round with verification on).
func writePhaseMetrics(w io.Writer, rec *obs.FlightRecorder) {
	recs := rec.Last(nil, rec.Cap())
	fmt.Fprintf(w, "# HELP flowsched_phase_seconds Per-round phase time over the flight recorder window (sliding, not cumulative).\n")
	fmt.Fprintf(w, "# TYPE flowsched_phase_seconds histogram\n")
	phases := []struct {
		name string
		get  func(r obs.RoundRecord) int64
	}{
		{"propose", func(r obs.RoundRecord) int64 { return r.ProposeNS }},
		{"reconcile", func(r obs.RoundRecord) int64 { return r.ReconcileNS }},
		{"apply", func(r obs.RoundRecord) int64 { return r.ApplyNS }},
		{"verify", func(r obs.RoundRecord) int64 { return r.VerifyNS }},
	}
	for _, ph := range phases {
		counts := make([]int64, len(phaseBuckets)+1)
		var sum float64
		for _, r := range recs {
			sec := float64(ph.get(r)) / 1e9
			sum += sec
			i := 0
			for i < len(phaseBuckets) && sec > phaseBuckets[i] {
				i++
			}
			counts[i]++
		}
		cum := int64(0)
		for i, le := range phaseBuckets {
			cum += counts[i]
			fmt.Fprintf(w, "flowsched_phase_seconds_bucket{phase=%q,le=%q} %d\n", ph.name, fmt.Sprintf("%g", le), cum)
		}
		cum += counts[len(phaseBuckets)]
		fmt.Fprintf(w, "flowsched_phase_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", ph.name, cum)
		fmt.Fprintf(w, "flowsched_phase_seconds_sum{phase=%q} %g\n", ph.name, sum)
		fmt.Fprintf(w, "flowsched_phase_seconds_count{phase=%q} %d\n", ph.name, cum)
	}
}

// writeSLOMetrics renders the burn-rate engine's state: per-target
// objective, windowed error ratios and burn rates, and the binary
// breach/warning conditions healthz keys off.
func writeSLOMetrics(w io.Writer, st slo.Status) {
	header := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	header("flowsched_slo_objective", "Configured good-event fraction per SLO target.", "gauge")
	for _, t := range st.Targets {
		fmt.Fprintf(w, "flowsched_slo_objective{target=%q} %g\n", t.Name, t.Objective)
	}
	header("flowsched_slo_events_total", "Cumulative events judged per SLO target.", "counter")
	for _, t := range st.Targets {
		fmt.Fprintf(w, "flowsched_slo_events_total{target=%q} %d\n", t.Name, t.Total)
	}
	header("flowsched_slo_errors_total", "Cumulative bad events per SLO target.", "counter")
	for _, t := range st.Targets {
		fmt.Fprintf(w, "flowsched_slo_errors_total{target=%q} %d\n", t.Name, t.Total-t.Good)
	}
	header("flowsched_slo_error_ratio", "Windowed bad-event ratio per SLO target.", "gauge")
	for _, t := range st.Targets {
		fmt.Fprintf(w, "flowsched_slo_error_ratio{target=%q,window=\"fast\"} %g\n", t.Name, t.FastErrorRate)
		fmt.Fprintf(w, "flowsched_slo_error_ratio{target=%q,window=\"slow\"} %g\n", t.Name, t.SlowErrorRate)
	}
	header("flowsched_slo_burn_rate", "Windowed error-budget burn rate per SLO target (1 = budget-neutral).", "gauge")
	for _, t := range st.Targets {
		fmt.Fprintf(w, "flowsched_slo_burn_rate{target=%q,window=\"fast\"} %g\n", t.Name, t.FastBurnRate)
		fmt.Fprintf(w, "flowsched_slo_burn_rate{target=%q,window=\"slow\"} %g\n", t.Name, t.SlowBurnRate)
	}
	header("flowsched_slo_breach", "1 while the fast-window burn rate breaches the paging threshold.", "gauge")
	for _, t := range st.Targets {
		fmt.Fprintf(w, "flowsched_slo_breach{target=%q} %d\n", t.Name, b2i(t.Breaching))
	}
	header("flowsched_slo_warning", "1 while the slow-window burn rate exceeds the warning threshold.", "gauge")
	for _, t := range st.Targets {
		fmt.Fprintf(w, "flowsched_slo_warning{target=%q} %d\n", t.Name, b2i(t.Warning))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writePilotMetrics renders the optimality pilot's live estimates: the
// competitive ratios (achieved response over the recomputed paper lower
// bound, >= 1 whenever a window exists), the bounds themselves, and the
// pending-set backlog bound.
func writePilotMetrics(w io.Writer, st pilot.Status) {
	header := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	header("flowsched_pilot_competitive_ratio", "Achieved response over the recomputed lower bound for the completion window (>= 1; 0 = no data).", "gauge")
	fmt.Fprintf(w, "flowsched_pilot_competitive_ratio{objective=\"total\"} %g\n", st.TotalRatio)
	fmt.Fprintf(w, "flowsched_pilot_competitive_ratio{objective=\"max\"} %g\n", st.MaxRatio)
	header("flowsched_pilot_lower_bound_rounds", "Recomputed lower bounds for the completion window.", "gauge")
	fmt.Fprintf(w, "flowsched_pilot_lower_bound_rounds{objective=\"total\"} %d\n", st.TotalLowerBound)
	fmt.Fprintf(w, "flowsched_pilot_lower_bound_rounds{objective=\"max\"} %d\n", st.MaxLowerBound)
	header("flowsched_pilot_backlog_bound_rounds", "Lower bound on rounds any scheduler needs to clear the snapshotted pending set.", "gauge")
	fmt.Fprintf(w, "flowsched_pilot_backlog_bound_rounds %d\n", st.BacklogBoundRounds)
	header("flowsched_pilot_window_flows", "Completions in the pilot's evaluation window.", "gauge")
	fmt.Fprintf(w, "flowsched_pilot_window_flows %d\n", st.WindowFlows)
	header("flowsched_pilot_evaluations_total", "Pilot evaluations performed.", "counter")
	fmt.Fprintf(w, "flowsched_pilot_evaluations_total %d\n", st.Evaluations)
	header("flowsched_pilot_snapshot_errors_total", "Pending-set snapshots that timed out or were cancelled.", "counter")
	fmt.Fprintf(w, "flowsched_pilot_snapshot_errors_total %d\n", st.SnapshotErrors)
}
