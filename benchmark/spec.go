package main

// This file is the benchmark's definition: the workloads, the gated
// end-to-end metrics with their regression bounds, and the ungated
// per-layer metrics with the end-to-end metric each is predicted to move.
// BENCHMARK.json at the repository root is contract() of these tables
// (written by -contract; spec_test.go keeps the two in step).

import "encoding/json"

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// contract renders BENCHMARK.json: exactly the keys the builder's contract
// names, nothing else.
func contract() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, metric{d.name, d.unit, d.better, &d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and numbers only
	}
	return append(b, '\n')
}

// kind selects the harness a workload runs under.
type kind int

const (
	kindDrain   kind = iota // in-process stream runtime over a replayed instance
	kindDaemon              // real flowschedd child over loopback HTTP
	kindOffline             // the paper's LP pipeline, no streaming code
)

// workload is one named input set and the configuration it runs under.
// Flow counts are per repeat at scale 1; a run repeats until --seconds
// have been measured and reports medians over the repeats.
type workload struct {
	name string
	why  string
	kind kind

	policy      string
	shards      int // always pinned: never the host-dependent default
	ports       int
	cap         int
	maxPending  int
	verifyEvery int
	flows       int       // flows per repeat
	quality     int       // Q: prefix scored against the lower bounds
	arrivals    float64   // Poisson mean per round (unit workloads)
	skew        *skewSpec // steady_skew's arrival model

	// offline_paper: instances per repeat and their shape.
	instances, rounds, perInstance int
}

const (
	paperPorts = 150     // the paper's experiments use a 150-port switch
	warmFlows  = 1 << 16 // warm-up drain before every timed phase
	postBatch  = 256     // flows per POST /flows body
	postBodies = 1024    // distinct pre-marshalled bodies, cycled
)

var workloads = []workload{
	{
		name: "drain_deep", kind: kindDrain,
		why:    "stream core at a deep resident backlog: arena/VOQ memory streaming, admit and retire dominate; a cheap pick, verify bypassed",
		policy: "RoundRobin", shards: 1, ports: paperPorts, cap: 1, maxPending: 1 << 16,
		flows: 1 << 20, quality: 1 << 17, arrivals: 2 * paperPorts,
	},
	{
		name: "drain_verified", kind: kindDrain,
		why:    "drain_deep plus VerifyEvery=256: same flows and schedule, so only windowed verification (buffer, merge, overlapped oracle, join) differs",
		policy: "RoundRobin", shards: 1, ports: paperPorts, cap: 1, maxPending: 1 << 16, verifyEvery: 256,
		flows: 1 << 20, quality: 1 << 17, arrivals: 2 * paperPorts,
	},
	{
		name: "drain_age", kind: kindDrain,
		why:    "policy-pick dominated: OldestFirst's age-ordered head sweep is most of the round; admit/retire is the small part",
		policy: "OldestFirst", shards: 1, ports: paperPorts, cap: 1, maxPending: 1 << 14,
		flows: 1 << 19, quality: 1 << 17, arrivals: 2 * paperPorts,
	},
	{
		name: "drain_age_k2", kind: kindDrain,
		why:    "drain_age at Shards=2: the same flows through carve/propose/reconcile, the age index and the barrier that sharding must pay rent for",
		policy: "OldestFirst", shards: 2, ports: paperPorts, cap: 1, maxPending: 1 << 14,
		flows: 1 << 19, quality: 1 << 17, arrivals: 2 * paperPorts,
	},
	{
		name: "steady_skew", kind: kindDrain,
		why:    "the only workload below saturation: thin backlog, fat multi-unit rounds, capacity packing, hot outputs at 0.95; response times measure the policy",
		policy: "OldestFirst", shards: 1, ports: paperPorts, cap: 8, maxPending: 1 << 16,
		flows: 1 << 21, quality: 1 << 18,
		skew: &skewSpec{ports: paperPorts, cap: 8, alpha: 1.3, dmax: 8, util: 0.70, hot: 9, hotUtil: 0.95},
	},
	{
		name: "daemon_ingest", kind: kindDaemon,
		why:    "the whole trip over loopback: HTTP, encoding/json, validate, ChanSource.Push per flow, admit, pick, retire, visible in /snapshot; ingest bound",
		policy: "RoundRobin", shards: 1, ports: paperPorts, cap: 1, maxPending: 1 << 16,
		flows: postBatch * postBodies, quality: 1 << 17,
	},
	{
		name: "offline_paper", kind: kindOffline,
		why:   "the paper's own pipeline, instance to LP to simplex to rounding to BvN to verified schedule; no stream code runs, so it bypasses every streaming change",
		ports: 5, cap: 1, instances: 64, rounds: 5, perInstance: 25,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one reported number.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	note   string  // end-to-end: definition; per-layer: which end-to-end metric it should move, where
}

// deterministic reports whether the metric is a function of the seed and
// the configuration alone: the four schedule-quality metrics. Their bounds
// in the table below are three times the widest spread seen across seeds
// (the builder's contract measures steadiness across seeds), capped at the
// contract's 25 %; between two sets that ran one seed they carry no noise
// at all, the suite fails if they differ between children of one set, and
// -compare judges them on oneSeedBound.
func (d metricDef) deterministic() bool {
	switch d.name {
	case "avg_response_rounds", "max_response_rounds", "art_vs_lb", "mrt_vs_lb":
		return true
	}
	return false
}

// oneSeedBound is how much a deterministic metric may worsen between two
// sets of one seed before -compare calls it worse: a faster row that
// schedules worse must fail.
const oneSeedBound = 0.01

// endToEnd is what a user of the system sees. Every workload reports every
// one of them (the contract's rule), so a number that exists on one
// workload only — the POST round trip — is a per-layer metric below, and
// failures are counted in the result's attempted/failed fields, not as a
// metric that would read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "construct (NewStreamRuntime / flowschedd start to first 200 /healthz / instance build) plus warm-up at the reference speed, median of several set-ups; input generation excluded"},
	{"flows_per_s", "flows/s", "higher", 0.25, "flows completed per second of timed wall at the reference speed (calibrate.go), median over repeats"},
	{"cpu_us_per_flow", "us", "lower", 0.25, "process user+sys CPU per flow over the timed phase at the reference speed (daemon_ingest: the flowschedd child's CPU only), median over repeats"},
	{"alloc_bytes_per_flow", "B", "lower", 0.10, "heap bytes allocated per flow over the timed phase (daemon_ingest: the child's TotalAlloc read through its pprof listener), median over repeats"},
	{"avg_response_rounds", "rounds", "lower", 0.05, "the paper's ART objective: Summary.AvgResponse of the timed drain (daemon_ingest: of the in-process quality replay; offline_paper: mean SolveART average response); deterministic per seed"},
	{"max_response_rounds", "rounds", "lower", 0.25, "the paper's MRT objective: Summary.MaxResponse, sources as avg_response_rounds (offline_paper: mean optimal rho over instances); deterministic per seed"},
	{"art_vs_lb", "ratio", "lower", 0.07, "total response over its lower bound: SRPTLowerBound on an untimed drain of the first Q flows (offline_paper: SolveART total over the LP (1)-(4) bound); deterministic per seed"},
	{"mrt_vs_lb", "ratio", "lower", 0.20, "max response over TrivialMRTLowerBound on the same Q-prefix drain (offline_paper: SolveMRT rho over MRTLowerBound, 1.0 by Theorem 3); deterministic per seed"},
}

// streamPolicies and paperHeuristics expand the <P> and <H> of the
// quality.* per-layer metrics.
var (
	streamPolicies  = []string{"RoundRobin", "OldestFirst", "WeightedISLIP", "StreamFIFO"}
	paperHeuristics = []string{"MaxCard", "MinRTime", "MaxWeight"}
)

// perLayer lists the ungated layer metrics. A traced run prints all of
// them; a layer the workload does not exercise reads 0 (no work done).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"bench.generate_s", "s", "lower", 0, "benchmark-side input generation; moves nothing in the program"},
		{"bench.host_slowdown", "ratio", "lower", 0, "reference kernel time over its nominal time during the run: how far the box was from the speed the gated times are scaled to; layer times are raw"},
		{"bench.loadgen_cpu_us_per_flow", "us", "lower", 0, "the load generator's own CPU on daemon_ingest; a rise means the box, not the daemon, bounds flows_per_s"},

		{"workload.pull_ns_per_flow", "ns", "lower", 0, "flows_per_s on drain_deep (<= 2 %); nothing elsewhere"},
		{"workload.pull_batch_mean", "flows", "higher", 0, "flows per source call; explains pull_ns_per_flow"},
		{"workload.pull_calls", "count", "lower", 0, "source calls per drain; a count claim"},
		{"workload.push_ns_per_flow", "ns", "lower", 0, "flows_per_s and cpu_us_per_flow on daemon_ingest; no in-process workload"},
		{"workload.push_wait_p99_us", "us", "lower", 0, "tail of a blocked ChanSource.Push; daemon.post_us_p99 on daemon_ingest"},

		{"stream.round_us_p50", "us", "lower", 0, "flows_per_s on every drain (may rise when rounds get fatter: a layer number, not a gate)"},
		{"stream.round_us_p99", "us", "lower", 0, "flows_per_s on every drain; GC and verifier joins show here first"},
		{"stream.propose_us_mean", "us", "lower", 0, "flows_per_s on every drain"},
		{"stream.reconcile_us_mean", "us", "lower", 0, "flows_per_s on drain_age_k2 only (0 at K=1)"},
		{"stream.apply_us_mean", "us", "lower", 0, "flows_per_s on every drain"},
		{"stream.verify_join_us_mean", "us", "lower", 0, "flows_per_s on drain_verified only, and only when the verifier cannot overlap"},
		{"stream.pick_us_mean", "us", "lower", 0, "flows_per_s on drain_age (most of the round); little on drain_deep and steady_skew"},
		{"stream.admit_retire_us_mean", "us", "lower", 0, "propose minus pick: flows_per_s on drain_deep and steady_skew; little on drain_age"},
		{"stream.rounds", "count", "lower", 0, "fewer rounds for the same flows: flows_per_s up and avg_response_rounds down together"},
		{"stream.flows_per_round", "flows", "higher", 0, "matching size; avg_response_rounds on every drain"},
		{"stream.port_utilisation", "share", "higher", 0, "scheduled demand over rounds x capacity; avg_response_rounds"},
		{"stream.pending_mean", "flows", "lower", 0, "resident backlog a round works over; round_us and avg_response_rounds"},
		{"stream.peak_pending", "flows", "lower", 0, "must stay <= MaxPending (checked)"},
		{"stream.backpressured_share", "share", "lower", 0, "flows admitted late; avg_response_rounds on the overloaded drains, 0 on steady_skew"},
		{"stream.allocs_per_round", "count", "lower", 0, "alloc_bytes_per_flow; the zero-alloc steady-state claim"},
		{"stream.alloc_bytes_per_round", "B", "lower", 0, "alloc_bytes_per_flow"},
		{"stream.construct_ms", "ms", "lower", 0, "setup_s"},
		{"stream.snapshot_ns_p50", "ns", "lower", 0, "must move nothing: Snapshot is the lock-free read path"},
		{"stream.coordinator_other_us_mean", "us", "lower", 0, "round wall no phase covers (routing, clock, loop): flows_per_s on drain_deep and steady_skew"},
		{"stream.k2_speedup", "ratio", "higher", 0, "drain_age_k2 flows_per_s over K=1 on the same flows in the same process; the number sharding is kept or deleted on"},
		{"stream.k2_cpu_ratio", "ratio", "lower", 0, "drain_age_k2 cpu_us_per_flow over K=1; what the speed-up costs"},

		{"verify.windows", "count", "higher", 0, "windows the oracle accepted (checked > 0 on drain_verified)"},
		{"verify.check_ns_per_flow", "ns", "lower", 0, "direct CheckSchedule on one rebuilt 256-round window; cpu_us_per_flow on drain_verified"},
		{"verify.cpu_us_per_flow", "us", "lower", 0, "drain_verified minus verify-off CPU in one process; cpu_us_per_flow on drain_verified only"},
		{"verify.alloc_bytes_per_round", "B", "lower", 0, "drain_verified minus verify-off allocation; alloc_bytes_per_flow on drain_verified only"},
		{"verify.check_us_offline", "us", "lower", 0, "oracle pass over one offline schedule; flows_per_s on offline_paper (small)"},

		{"obs.recorder_overhead_pct", "%", "lower", 0, "traced over untraced wall in one process; what the tracing itself costs"},
		{"obs.trace_export_ms", "ms", "lower", 0, "WriteJSONL of 4096 records; the daemon's GET /trace"},

		{"chkpt.capture_ms", "ms", "lower", 0, "one CheckpointState at a full backlog; nothing end to end unless checkpoints are periodic"},
		{"chkpt.encode_ms", "ms", "lower", 0, "as chkpt.capture_ms"},
		{"chkpt.decode_ms", "ms", "lower", 0, "restore time; setup_s of a restored daemon"},
		{"chkpt.bytes_per_flow", "B", "lower", 0, "checkpoint file size"},

		{"daemon.post_us_p50", "us", "lower", 0, "the POST /flows round trip a client sees at 256 flows per body, closed loop, 2 connections"},
		{"daemon.post_us_p99", "us", "lower", 0, "as daemon.post_us_p50"},
		{"daemon.handler_us_per_flow", "us", "lower", 0, "Handler().ServeHTTP without sockets; flows_per_s and cpu_us_per_flow on daemon_ingest"},
		{"daemon.transport_us_per_flow", "us", "lower", 0, "httptest server minus bare handler: net/http and loopback; flows_per_s on daemon_ingest"},
		{"daemon.decode_us_per_flow", "us", "lower", 0, "bare handler minus direct Push: encoding/json and validation; flows_per_s on daemon_ingest"},
		{"daemon.alloc_bytes_per_flow", "B", "lower", 0, "alloc_bytes_per_flow on daemon_ingest"},
		{"daemon.allocs_per_flow", "count", "lower", 0, "alloc_bytes_per_flow and cpu_us_per_flow on daemon_ingest"},
		{"daemon.body_bytes_per_flow", "B", "lower", 0, "wire size; decode cost scales with it"},
	}
	for _, b := range []string{"b1", "b16", "b256"} {
		defs = append(defs,
			metricDef{"daemon.post_us_p50." + b, "us", "lower", 0, "batch-size sweep: a handler gain shows at b1, a batching gain at b256"},
			metricDef{"daemon.post_us_p99." + b, "us", "lower", 0, "as daemon.post_us_p50." + b})
	}
	defs = append(defs,
		metricDef{"daemon.flows_per_s.b1", "flows/s", "higher", 0, "per-request cost dominates; a handler gain shows here"},
		metricDef{"daemon.flows_per_s.b16", "flows/s", "higher", 0, "between b1 and the gated b256 run"},
		metricDef{"daemon.open_p50_us", "us", "lower", 0, "open loop at 1000 POST/s timed from the due time; informational on shared cores"},
		metricDef{"daemon.open_p99_us", "us", "lower", 0, "as daemon.open_p50_us"},
		metricDef{"daemon.open_late_p99_us", "us", "lower", 0, "how late the generator itself ran; qualifies the open-loop numbers"},
		metricDef{"daemon.metrics_scrape_us_p50", "us", "lower", 0, "GET /metrics at 10 Hz during the traced run; must not move flows_per_s"},
		metricDef{"daemon.metrics_bytes", "B", "lower", 0, "exposition size"},
		metricDef{"daemon.drain_tail_ms", "ms", "lower", 0, "last acknowledgement to POST /drain returning"},
		metricDef{"daemon.avg_response_rounds", "rounds", "lower", 0, "the daemon's own Summary.AvgResponse in the traced run (thread timing moves it; the gated number is a replay)"},
		metricDef{"daemon.max_response_rounds", "rounds", "lower", 0, "the daemon's own Summary.MaxResponse in the traced run (moved 30 % from run to run when sized)"},

		metricDef{"core.art_lb_ms_p50", "ms", "lower", 0, "flows_per_s on offline_paper (the largest share)"},
		metricDef{"core.solve_art_ms_p50", "ms", "lower", 0, "flows_per_s on offline_paper (small share)"},
		metricDef{"core.mrt_lb_ms_p50", "ms", "lower", 0, "flows_per_s on offline_paper"},
		metricDef{"core.solve_mrt_ms_p50", "ms", "lower", 0, "flows_per_s on offline_paper (second largest share)"},
		metricDef{"core.iterative_round_ms_p50", "ms", "lower", 0, "the Lemma 3.3 rounding alone; inside core.solve_art_ms_p50"},
		metricDef{"lp.pivots_art_lb", "count", "lower", 0, "simplex pivots of LP (1)-(4), total over the instances; a count claim"},
		metricDef{"lp.ns_per_pivot", "ns", "lower", 0, "flows_per_s on offline_paper"},
		metricDef{"lp.pivots_solve_art", "count", "lower", 0, "pivots across the iterative-rounding solves; a count claim"},
		metricDef{"rounding.iterations", "count", "lower", 0, "LP re-solves in IterativeRound (Lemma 3.5: O(log n)); a count claim"},
		metricDef{"bvn.decompose_us_p50", "us", "lower", 0, "one BvN decomposition at the instances' size; inside core.solve_art_ms_p50"},
	)
	for _, h := range paperHeuristics {
		defs = append(defs, metricDef{"sim.run_ms." + h, "ms", "lower", 0, "one 150-port M=150 T=20 paper-scale simulation; the Fig 6/7 substrate, gated nowhere"})
	}
	for _, p := range streamPolicies {
		for _, m := range []metricDef{
			{"avg_response_rounds", "rounds", "lower", 0, ""},
			{"max_response_rounds", "rounds", "lower", 0, ""},
			{"art_vs_lb", "ratio", "lower", 0, ""},
			{"mrt_vs_lb", "ratio", "lower", 0, ""},
			{"flows_per_s", "flows/s", "higher", 0, ""},
		} {
			m.name = "quality." + p + "." + m.name
			m.note = p + " on the steady_skew Q-prefix: quality beside speed for every native policy"
			defs = append(defs, m)
		}
	}
	for _, h := range paperHeuristics {
		defs = append(defs,
			metricDef{"quality.heur_art_vs_lp." + h, "ratio", "lower", 0, "Fig 6 gap: " + h + " total response over the LP (1)-(4) bound on the offline_paper instances"},
			metricDef{"quality.heur_mrt_vs_lp." + h, "ratio", "lower", 0, "Fig 7 gap: " + h + " max response over MRTLowerBound on the offline_paper instances"})
	}
	return defs
}
