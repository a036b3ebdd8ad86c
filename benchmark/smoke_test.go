package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowsched"
)

// TestSmoke runs all seven workloads once at 1/64 scale, end to end and
// traced, daemon_ingest served in-process through httptest: every code
// path of the benchmark, its output checks included, in a few seconds.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			start := time.Now()
			res, err := execute(options{workload: w.name, seed: 1, trace: trace, scale: 64, outDir: out, log: testLog{t}})
			t.Logf("%s (trace %v) took %v", w.name, trace, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d operations failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics printed, table has %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || (!trace && m.Value <= 0) {
					t.Errorf("%s (trace %v): metric %s = %+v (present %v)", w.name, trace, d.name, m, ok)
				}
			}
			if !trace && (res.raw["setup_s"] <= 0 || res.raw["flows_per_s"] <= 0 || res.raw["cpu_us_per_flow"] <= 0) {
				t.Errorf("%s: raw times %v beside the calibrated ones", w.name, res.raw)
			}
			var back resultLine
			if err := json.Unmarshal([]byte(res.String()), &back); err != nil {
				t.Errorf("%s: result line does not parse: %v", w.name, err)
			}
		}
		trace, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".jsonl"))
		if err != nil {
			t.Errorf("%s: traced run left no trace: %v", w.name, err)
			continue
		}
		for i, line := range strings.Split(strings.TrimSpace(string(trace)), "\n") {
			var s struct {
				Trace, Name  string
				Span, Parent int
			}
			if err := json.Unmarshal([]byte(line), &s); err != nil || s.Trace != w.name || s.Span != i || s.Parent < -1 || s.Parent == i || s.Name == "" {
				t.Errorf("%s: trace line %d malformed (%v): %s", w.name, i, err, line)
				break
			}
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestDecoratorsTransparent: a K=1 drain through the source and policy
// decorators schedules exactly as the bare drain does, for every native
// policy the benchmark wraps.
func TestDecoratorsTransparent(t *testing.T) {
	for _, name := range []string{"drain_deep", "drain_age", "steady_skew"} {
		w := workloadByName(name)
		inst := &flowsched.Instance{Switch: w.fabric(), Flows: w.generate(5, 1<<14)}
		cfg := w.streamConfig()
		cfg.MaxPending = 1 << 10 // reach the backpressured regime in a short drain
		bare, _, err := drain(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := traceDrain(name, inst, cfg, int(bare.Rounds))
		if err != nil {
			t.Fatal(err)
		}
		if scheduleOf(wrapped.sum) != scheduleOf(bare) {
			t.Errorf("%s: wrapped drain %+v, bare drain %+v", name, scheduleOf(wrapped.sum), scheduleOf(bare))
		}
		if len(wrapped.recs) != int(bare.Rounds) || wrapped.src.flows != inst.N() {
			t.Errorf("%s: %d records for %d rounds, %d of %d flows pulled", name, len(wrapped.recs), bare.Rounds, wrapped.src.flows, inst.N())
		}
		if self, count := wrapped.tr.selfTime("stream.pick"); count != int(bare.Rounds) || self <= 0 {
			t.Errorf("%s: %d pick spans (self %d ns) for %d rounds", name, count, self, bare.Rounds)
		}
	}
}

// TestCompareRefuses: -compare refuses other hosts and other inputs
// instead of printing a table nobody should read.
func TestCompareRefuses(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, res suiteResult) string {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := suiteResult{Fingerprint: hostFingerprint(), Seed: 1, Repeats: 5, Seconds: 3, EndToEnd: map[string]map[string]series{"drain_deep": {}}}
	for _, d := range endToEnd {
		base.EndToEnd["drain_deep"][d.name] = newSeries(d.unit, []float64{10, 10.1, 9.9, 10, 10})
	}
	a := write("a.json", base)

	slow := base
	slow.EndToEnd = map[string]map[string]series{"drain_deep": {}}
	for _, d := range endToEnd {
		slow.EndToEnd["drain_deep"][d.name] = newSeries(d.unit, []float64{20, 20.1, 19.9, 20, 20})
	}
	worse, err := compare(a, write("slow.json", slow), testLog{t})
	if err != nil || worse == 0 {
		t.Errorf("doubled metrics: %d worse rows, err %v", worse, err)
	}
	if worse, err := compare(a, a, testLog{t}); err != nil || worse != 0 {
		t.Errorf("a set against itself: %d worse rows, err %v", worse, err)
	}

	// At one seed the schedule-quality metrics carry no noise: a max
	// response 5 % up is a worse schedule, whatever its cross-seed bound.
	drift := base
	drift.EndToEnd = map[string]map[string]series{"drain_deep": {}}
	for name, v := range base.EndToEnd["drain_deep"] {
		drift.EndToEnd["drain_deep"][name] = v
	}
	drift.EndToEnd["drain_deep"]["max_response_rounds"] = newSeries("rounds", []float64{10.5, 10.5, 10.5, 10.5, 10.5})
	if worse, err := compare(a, write("drift.json", drift), testLog{t}); err != nil || worse != 1 {
		t.Errorf("max response 5 %% up at one seed: %d worse rows, err %v", worse, err)
	}

	otherHost := base
	otherHost.Fingerprint.NumCPU++
	if _, err := compare(a, write("host.json", otherHost), testLog{t}); err == nil {
		t.Error("compared results from different hosts")
	}
	otherSeed := base
	otherSeed.Seed = 2
	if _, err := compare(a, write("seed.json", otherSeed), testLog{t}); err == nil {
		t.Error("compared results from different seeds")
	}
	otherCommit := base
	otherCommit.Fingerprint.Commit = "something else"
	if _, err := compare(a, write("commit.json", otherCommit), testLog{t}); err != nil {
		t.Errorf("refused to compare two commits on one host: %v", err)
	}
}
