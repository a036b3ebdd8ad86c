package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

// fingerprint identifies the host and build a result was measured on.
// Results from different hosts are not comparable: -compare refuses them.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is informational: comparing two commits is the point.
	Commit string `json:"git_commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+dirty"
				}
			}
		}
	}
	return fp
}

// sameHost reports whether two results may be compared.
func (a fingerprint) sameHost(b fingerprint) bool {
	a.Commit, b.Commit = "", ""
	return a == b
}

// series is one end-to-end metric over a set's repeats.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	N      int       `json:"n"`
}

func newSeries(unit string, values []float64) series {
	s := series{Unit: unit, Values: values, Median: median(values), Min: quantile(values, 0), N: len(values)}
	if len(values) >= 2 {
		s.Q1, s.Q3 = quartiles(values)
	} else {
		s.Q1, s.Q3 = s.Median, s.Median
	}
	return s
}

// suiteResult is what one run of the whole suite leaves behind.
type suiteResult struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        int64       `json:"seed"`
	VarySeed    bool        `json:"vary_seed"`
	Repeats     int         `json:"repeats"`
	Seconds     float64     `json:"seconds"`
	// EndToEnd[workload][metric]; PerLayer[workload][metric] from the one
	// traced run per workload.
	EndToEnd map[string]map[string]series      `json:"end_to_end"`
	PerLayer map[string]map[string]metricValue `json:"per_layer,omitempty"`
	// Raw[workload][metric] is the three calibrated times (setup_s,
	// flows_per_s, cpu_us_per_flow) of the same runs as the clocks read
	// them. Informational: -compare judges EndToEnd.
	Raw map[string]map[string]series `json:"raw"`
}

// suiteOptions configures a suite run.
type suiteOptions struct {
	options
	repeats  int
	varySeed bool // repeat i runs seed+i: the contract's steadiness check
}

// child runs one workload in a fresh process — no heap, GC pacing or page
// cache state shared between runs — and parses its result line. The
// child's log (layer table, repeat counts) goes to log.
func child(self string, opt options, log io.Writer) (resultLine, error) {
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"--workload", opt.workload, "--seed", fmt.Sprint(opt.seed),
		"--seconds", fmt.Sprint(opt.seconds), "--trace", trace,
		"-flowschedd", opt.flowschedd, "-out", opt.outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	log.Write(stderr.Bytes())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	for _, l := range strings.Split(stderr.String(), "\n") {
		if raw, ok := strings.CutPrefix(l, rawPrefix); ok {
			if err := json.Unmarshal([]byte(raw), &res.raw); err != nil {
				return res, fmt.Errorf("%s: raw times line: %w", opt.workload, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v): %s", opt.workload, errors.Join(runErr, err), stderr.String())
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%s: run failed its checks (%d of %d operations): %s", opt.workload, res.Failed, res.Attempted, stderr.String())
	}
	return res, nil
}

// runSuite measures every workload so.repeats times, one fresh child per
// (workload, repeat), repeats interleaved round-robin across workloads so
// slow drift of the box lands on every workload alike, after one untimed
// warm-up pass; then one traced child per workload.
func runSuite(so suiteOptions, out io.Writer) (*suiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &suiteResult{
		Fingerprint: hostFingerprint(), Seed: so.seed, VarySeed: so.varySeed, Repeats: so.repeats, Seconds: so.seconds,
		EndToEnd: map[string]map[string]series{}, PerLayer: map[string]map[string]metricValue{}, Raw: map[string]map[string]series{},
	}
	values, raws := map[string]map[string][]float64{}, map[string]map[string][]float64{}
	for rep := -1; rep < so.repeats; rep++ { // rep -1 is the warm-up pass
		for _, w := range workloads {
			name, opt := w.name, so.options
			opt.workload, opt.trace = name, false
			if so.varySeed {
				opt.seed += int64(max(rep, 0))
			}
			line, err := child(self, opt, io.Discard)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "repeat %2d %-15s seed %d flows_per_s %.6g\n", rep, name, opt.seed, line.Metrics["flows_per_s"].Value)
			if rep < 0 {
				continue
			}
			if values[name] == nil {
				values[name], raws[name] = map[string][]float64{}, map[string][]float64{}
			}
			for m, v := range line.raw {
				raws[name][m] = append(raws[name][m], v)
			}
			for _, d := range endToEnd {
				v := line.Metrics[d.name].Value
				// A schedule is a function of configuration and input: at
				// one seed every fresh process reproduces it to the last bit.
				if prev := values[name][d.name]; d.deterministic() && !so.varySeed && len(prev) > 0 && v != prev[0] {
					return nil, fmt.Errorf("%s: %s is %v in repeat %d and %v in repeat 0 of the same seed", name, d.name, v, rep, prev[0])
				}
				values[name][d.name] = append(values[name][d.name], v)
			}
		}
	}
	for _, w := range workloads {
		name := w.name
		res.EndToEnd[name], res.Raw[name] = map[string]series{}, map[string]series{}
		for _, d := range endToEnd {
			res.EndToEnd[name][d.name] = newSeries(d.unit, values[name][d.name])
			if raw := raws[name][d.name]; len(raw) > 0 {
				res.Raw[name][d.name] = newSeries(d.unit, raw)
			}
		}
		opt := so.options
		opt.workload, opt.trace = name, true
		line, err := child(self, opt, out)
		if err != nil {
			return nil, err
		}
		res.PerLayer[name] = line.Metrics
	}
	res.print(out)
	if err := os.MkdirAll(so.outDir, 0o755); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(so.outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "result written to %s\n", path)
	return res, nil
}

func (res *suiteResult) names() []string {
	var names []string
	for _, w := range workloads {
		if _, ok := res.EndToEnd[w.name]; ok {
			names = append(names, w.name)
		}
	}
	return names
}

// print writes the end-to-end table (median, quartiles, min, n and the
// quartile spread the contract bounds; for the calibrated times also the
// median and spread as the clocks read them) and the non-zero layer metrics.
func (res *suiteResult) print(out io.Writer) {
	fp := res.Fingerprint
	fmt.Fprintf(out, "\nhost: %s, %d cpus, GOMAXPROCS %d, %s %s/%s, commit %s; seed %d (vary %v), N %d, %g s per run\n\n",
		fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.GOOS, fp.GOARCH, fp.Commit, res.Seed, res.VarySeed, res.Repeats, res.Seconds)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tmin\tn\tspread\tbound\traw median\traw spread")
	for _, name := range res.names() {
		for _, d := range endToEnd {
			s := res.EndToEnd[name][d.name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t%.1f%%\t%.0f%%",
				name, d.name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.N, 100*spread(s.Values), 100*d.bound)
			if raw, ok := res.Raw[name][d.name]; ok {
				fmt.Fprintf(tw, "\t%.6g\t%.1f%%", raw.Median, 100*spread(raw.Values))
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	for _, name := range res.names() {
		layer := res.PerLayer[name]
		if len(layer) == 0 {
			continue
		}
		fmt.Fprintf(out, "\nper-layer, traced run of %s (layers it does not exercise read 0 and are left out):\n", name)
		tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		for _, d := range perLayer {
			if v := layer[d.name]; v.Value != 0 {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, v.Value, v.Unit)
			}
		}
		tw.Flush()
	}
}

func loadResult(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res suiteResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// verdict judges one metric of set B against set A under its bound:
// better, same, worse, or unresolved when the run-to-run spread is wider
// than the bound and the two sets of runs overlap.
func verdict(d metricDef, a, b series) (v string, ratio float64) {
	ratio = b.Median / a.Median
	worsening := ratio - 1
	worseThan := func(x, y float64) bool { return x > y }
	if d.better == "higher" {
		worsening = -worsening
		worseThan = func(x, y float64) bool { return x < y }
	}
	if max(spread(a.Values), spread(b.Values)) > d.bound {
		allWorse, allBetter := true, true
		for _, x := range b.Values {
			for _, y := range a.Values {
				allWorse = allWorse && worseThan(x, y)
				allBetter = allBetter && worseThan(y, x)
			}
		}
		switch {
		case allWorse && worsening > d.bound:
			return "worse", ratio
		case allBetter:
			return "better", ratio
		}
		return "unresolved", ratio
	}
	switch {
	case worsening > d.bound:
		return "worse", ratio
	case worsening < -d.bound:
		return "better", ratio
	}
	return "same", ratio
}

// compare prints one row per (workload, metric) of B against base A and
// reports how many rows are worse. It refuses — it does not skip — sets
// measured on different hosts, seeds or run lengths.
func compare(pathA, pathB string, out io.Writer) (worse int, err error) {
	a, err := loadResult(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return 0, err
	}
	if !a.Fingerprint.sameHost(b.Fingerprint) {
		return 0, fmt.Errorf("refusing to compare different hosts:\n  %s: %+v\n  %s: %+v", pathA, a.Fingerprint, pathB, b.Fingerprint)
	}
	if a.Seed != b.Seed || a.VarySeed != b.VarySeed || a.Seconds != b.Seconds {
		return 0, fmt.Errorf("refusing to compare different inputs: seed %d/%d, vary-seed %v/%v, seconds %g/%g",
			a.Seed, b.Seed, a.VarySeed, b.VarySeed, a.Seconds, b.Seconds)
	}
	fmt.Fprintf(out, "base A = %s (commit %s), B = %s (commit %s); ratio = B median / A median\n\n",
		pathA, a.Fingerprint.Commit, pathB, b.Fingerprint.Commit)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB/A\tbound\tverdict")
	for _, name := range a.names() {
		for _, d := range endToEnd {
			sa, sb := a.EndToEnd[name][d.name], b.EndToEnd[name][d.name]
			if sb.N == 0 {
				return worse, fmt.Errorf("%s has no %s/%s", pathB, name, d.name)
			}
			if d.deterministic() && !a.VarySeed {
				d.bound = oneSeedBound
			}
			v, ratio := verdict(d, sa, sb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.4f\t%.0f%% %s\t%s\n",
				name, d.name, sa.Unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, ratio, 100*d.bound, d.better, v)
		}
	}
	return worse, tw.Flush()
}
