package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"flowsched"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's side of each call into the program (decorators and
// clock pairs); the per-round phase spans are synthetic, rebuilt after the
// run from the flight recorder's RoundRecords, which carry durations but
// no timestamps.
type span struct {
	name       string
	start, end int64 // ns since the trace began
	parent     int32 // index of the causing span; -1 for the root
	synthetic  bool
}

// tracer keeps one workload's spans in memory until the run ends. It is
// used from one goroutine at a time.
type tracer struct {
	id    string // every span of one workload shares this identifier
	epoch time.Time
	spans []span
}

const noParent int32 = -1

func newTracer(id string) *tracer {
	return &tracer{id: id, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent; finish closes it.
func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(i int32) { t.spans[i].end = t.now() }

// add records a span whose interval is already known.
func (t *tracer) add(name string, parent int32, start, end int64, synthetic bool) int32 {
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, synthetic: synthetic})
	return int32(len(t.spans) - 1)
}

// stage returns a pipeline stage that records one span per call under
// parent (offline_paper's traced run).
func (t *tracer) stage(parent *int32) stage {
	return func(name string, f func()) {
		i := t.begin(name, *parent)
		f()
		t.finish(i)
	}
}

// layer is the per-name roll-up of a trace.
type layer struct {
	name        string
	count       int
	total, self int64 // ns; self = total minus the time child spans cover
}

// layers rolls the spans up by name in order of first appearance. A
// span's self time is its duration minus its children's durations; where
// children run side by side (the daemon's two connections) they can cover
// more than their parent, whose self time then reads 0.
func (t *tracer) layers() []layer {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	index := map[string]int{}
	var out []layer
	for i, s := range t.spans {
		k, ok := index[s.name]
		if !ok {
			k = len(out)
			index[s.name] = k
			out = append(out, layer{name: s.name})
		}
		out[k].count++
		out[k].total += s.end - s.start
		out[k].self += self[i]
	}
	return out
}

// selfTime is the summed self time of every span called name.
func (t *tracer) selfTime(name string) (ns int64, count int) {
	for _, l := range t.layers() {
		if l.name == name {
			return l.self, l.count
		}
	}
	return 0, 0
}

// printLayers writes the layer table: where the traced wall went.
func (t *tracer) printLayers(w io.Writer) {
	ls := t.layers()
	if len(ls) == 0 {
		return
	}
	wall := float64(ls[0].total)
	var table strings.Builder
	fmt.Fprintf(&table, "trace %s: %d spans, self time by layer (root %s = %.3f s):\n", t.id, len(t.spans), ls[0].name, wall/1e9)
	tw := tabwriter.NewWriter(&table, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  layer\tspans\ttotal ms\tself ms\tself share")
	for _, l := range ls {
		fmt.Fprintf(tw, "  %s\t%d\t%.3f\t%.3f\t%.1f%%\n", l.name, l.count, float64(l.total)/1e6, float64(l.self)/1e6, 100*float64(l.self)/wall)
	}
	tw.Flush()
	io.WriteString(w, table.String())
}

// write stores the spans as JSON Lines in dir/trace-<id>.jsonl.
func (t *tracer) write(dir string) (err error) {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+t.id+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"trace":%q,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"synthetic":%t}`+"\n",
			t.id, i, s.parent, s.name, s.start, s.end, s.synthetic)
	}
	return bw.Flush()
}

// tracedSource times every call the runtime makes into its source.
type tracedSource struct {
	inner  flowsched.StreamBatchSource
	t      *tracer
	parent int32
	calls  int
	flows  int
}

func (s *tracedSource) Next() (flowsched.Flow, bool) {
	i := s.t.begin("workload.pull", s.parent)
	f, ok := s.inner.Next()
	s.t.finish(i)
	s.calls++
	if ok {
		s.flows++
	}
	return f, ok
}

func (s *tracedSource) PullBatch(dst []flowsched.Flow, round, max int) []flowsched.Flow {
	i := s.t.begin("workload.pull", s.parent)
	before := len(dst)
	dst = s.inner.PullBatch(dst, round, max)
	s.t.finish(i)
	s.calls++
	s.flows += len(dst) - before
	return dst
}

func (s *tracedSource) Err() error { return s.inner.Err() }

// tracedPolicy times every Pick. It forwards Name, Pick and Reset and
// nothing else, so it must only wrap a policy at Shards == 1: the runtime
// type-asserts unexported interfaces (the age index) on Config.Policy at
// K > 1, and a wrapper would silently drop them and change the schedule.
type tracedPolicy struct {
	inner  flowsched.StreamPolicy
	t      *tracer
	parent int32
	picks  []int32 // span of each Pick, in round order
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Pick(v *flowsched.StreamView) {
	i := p.t.begin("stream.pick", p.parent)
	p.inner.Pick(v)
	p.t.finish(i)
	p.picks = append(p.picks, i)
}

func (p *tracedPolicy) Reset(sw flowsched.Switch) {
	if r, ok := p.inner.(interface{ Reset(flowsched.Switch) }); ok {
		r.Reset(sw)
	}
}

// addRounds appends one synthetic stream.round span per RoundRecord under
// root, laid end to end from the root's start, each with its non-empty
// phases as children; when picks line up one-to-one with the records,
// each real pick span is re-parented under its round's propose phase, so
// propose's self time is admit plus retire.
func (t *tracer) addRounds(root int32, recs []flowsched.RoundRecord, picks []int32) {
	linked := len(picks) == len(recs)
	cursor := t.spans[root].start
	for k, rec := range recs {
		total := rec.ProposeNS + rec.ReconcileNS + rec.ApplyNS + rec.VerifyNS
		round := t.add("stream.round", root, cursor, cursor+total, true)
		at := cursor
		for _, ph := range []struct {
			name string
			ns   int64
		}{
			{"stream.propose", rec.ProposeNS}, {"stream.reconcile", rec.ReconcileNS},
			{"stream.apply", rec.ApplyNS}, {"stream.verify_join", rec.VerifyNS},
		} {
			if ph.ns == 0 {
				continue
			}
			i := t.add(ph.name, round, at, at+ph.ns, true)
			if linked && ph.name == "stream.propose" {
				t.spans[picks[k]].parent = i
			}
			at += ph.ns
		}
		cursor += total
	}
}

// durations returns the length in ms of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}
