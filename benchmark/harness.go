package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"
)

// options selects one run: one workload, one seed, one measured length,
// end-to-end (trace off) or per-layer (trace on).
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale divides every flow and instance count; the smoke pass runs
	// at 64, the benchmark proper always at 1.
	scale int
	// flowschedd is the daemon binary daemon_ingest starts. Empty serves
	// the daemon in-process through httptest, so the smoke test never
	// shells out to go build.
	flowschedd string
	// outDir receives trace-<workload>.jsonl from a traced run ("" = none).
	outDir string
	log    io.Writer
}

// run accumulates one run's metric values and output checks.
type run struct {
	w   *workload
	opt options

	// ref calibrates every gated time against the host's speed at the
	// moment it was taken (see calibrate.go).
	ref *reference

	values map[string]float64
	// raw holds the three gated times as the clocks read them, beside
	// the calibrated values the result line carries: the suite stores
	// both, so a reader on another host can tell what the scaling did.
	raw       map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newRun(w *workload, opt options) *run {
	if opt.scale < 1 {
		opt.scale = 1
	}
	if opt.log == nil {
		opt.log = io.Discard
	}
	return &run{w: w, opt: opt, ref: newReference(opt.scale), values: map[string]float64{}, raw: map[string]float64{}}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.opt.log, format+"\n", args...) }

// fail counts n failed operations and records why: the run is then
// incorrect and exits non-zero instead of printing a number that looks
// like a measurement.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += int64(n)
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records one failed output check unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(1, format, args...)
	}
}

// measuring reports whether another repeat fits: the timed phase runs at
// least once and until opt.seconds have passed since start.
func (r *run) measuring(start time.Time, done int) bool {
	return done == 0 || time.Since(start).Seconds() < r.opt.seconds
}

// sample is what one timed section cost this process.
type sample struct {
	wall, cpu  float64 // seconds; at the reference speed once calibrated
	rawWall    float64 // seconds as the clocks read them, set by calibrated
	rawCPU     float64
	bytes      float64 // heap bytes allocated
	mallocs    float64 // heap objects allocated
	buildBytes float64 // heap bytes allocated constructing what the section ran on
}

// cpuSeconds is this process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure times f: wall by a time.Now pair, CPU by a getrusage delta and
// allocation by a runtime.MemStats delta, all taken outside f.
func measure(f func()) sample {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuSeconds()
	start := time.Now()
	f()
	wall := time.Since(start).Seconds()
	cpu = cpuSeconds() - cpu
	runtime.ReadMemStats(&after)
	return sample{
		wall: wall, cpu: cpu,
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
		mallocs: float64(after.Mallocs - before.Mallocs),
	}
}

// column extracts one field of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// setSetup fills setup_s from the run's set-ups: the median.
func (r *run) setSetup(setups []sample) {
	r.set("setup_s", median(column(setups, func(s sample) float64 { return s.wall })))
	r.raw["setup_s"] = median(column(setups, func(s sample) float64 { return s.rawWall }))
}

// setThroughput fills the three per-flow cost metrics every workload
// reports from its timed repeats of flows flows each.
func (r *run) setThroughput(reps []sample, flows int) {
	n := float64(flows)
	walls := column(reps, func(s sample) float64 { return s.wall })
	rawWalls := column(reps, func(s sample) float64 { return s.rawWall })
	r.logf("%s: %d timed repeats, wall min %.4f median %.4f max %.4f s as read, median %.4f s at the reference speed; host slowdown median %.3f (min %.3f max %.3f)",
		r.w.name, len(reps), quantile(rawWalls, 0), median(rawWalls), quantile(rawWalls, 1), median(walls),
		median(r.ref.passes)/referenceSeconds, quantile(r.ref.passes, 0)/referenceSeconds, quantile(r.ref.passes, 1)/referenceSeconds)
	r.set("flows_per_s", n/median(walls))
	r.raw["flows_per_s"] = n / median(rawWalls)
	r.set("cpu_us_per_flow", 1e6*median(column(reps, func(s sample) float64 { return s.cpu }))/n)
	r.raw["cpu_us_per_flow"] = 1e6 * median(column(reps, func(s sample) float64 { return s.rawCPU })) / n
	r.set("alloc_bytes_per_flow", median(column(reps, func(s sample) float64 { return s.bytes + s.buildBytes }))/n)
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// raw is not part of the contract's line: an end-to-end run logs it
	// on standard error behind rawPrefix, where the suite picks it up.
	raw map[string]float64
}

// rawPrefix starts the log line that carries a run's uncalibrated times.
const rawPrefix = "raw times: "

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(b)
}

// result renders the run against the metric table it must fill: every
// end-to-end metric with tracing off, every per-layer metric with it on.
// An end-to-end metric the run did not produce is itself a failed check.
func (r *run) result() resultLine {
	defs := endToEnd
	if r.opt.trace {
		defs = perLayer
	}
	out := resultLine{Attempted: max(r.attempted, 1), Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		if !r.opt.trace {
			r.check(ok && v > 0, "end-to-end metric %s missing or not positive (%v)", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Failed = r.failed
	out.Correct = r.failed == 0
	return out
}

func (l resultLine) String() string { return mustJSON(l) }

// execute runs one workload under opt and returns its result line. An
// error means the run could not be carried out at all; failed output
// checks come back inside the result (Correct false) with their reasons
// logged.
func execute(opt options) (resultLine, error) {
	w := workloadByName(opt.workload)
	if w == nil {
		return resultLine{}, fmt.Errorf("unknown workload %q", opt.workload)
	}
	r := newRun(w, opt)
	var err error
	switch {
	case w.kind == kindDrain && !opt.trace:
		err = r.drainEndToEnd()
	case w.kind == kindDrain:
		err = r.drainTraced()
	case w.kind == kindDaemon && !opt.trace:
		err = r.daemonEndToEnd()
	case w.kind == kindDaemon:
		err = r.daemonTraced()
	case !opt.trace:
		err = r.offlineEndToEnd()
	default:
		err = r.offlineTraced()
	}
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if opt.trace {
		for i := 0; i < 3; i++ {
			r.ref.pass()
		}
		r.set("bench.host_slowdown", median(r.ref.passes)/referenceSeconds)
	}
	res := r.result()
	if !opt.trace {
		res.raw = r.raw
		r.logf("%s%s", rawPrefix, mustJSON(r.raw))
	}
	for _, p := range r.problems {
		r.logf("FAILED CHECK %s: %s", w.name, p)
	}
	return res, nil
}
