package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"flowsched/internal/daemon"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// newServer builds a daemon over an 8-port unit switch without starting
// its round loop or a listener.
func newServer(t testing.TB, cfg daemon.Config) *daemon.Server {
	t.Helper()
	cfg.Switch = switchnet.UnitSwitch(8)
	cfg.Policy = stream.ByName("RoundRobin")
	srv, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// post serves one POST /flows straight through the handler.
func post(ctx context.Context, srv *daemon.Server, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/flows", bytes.NewReader(body)).WithContext(ctx)
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// unitBody marshals n admissible flows the way the repo's clients do.
func unitBody(t testing.TB, n int) []byte {
	t.Helper()
	flows := make([]switchnet.Flow, n)
	for i := range flows {
		flows[i] = switchnet.Flow{In: i % 8, Out: (i + 3) % 8, Demand: 1}
	}
	body, err := json.Marshal(map[string]any{"flows": flows})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDaemonOversizedBody: a body over the ingest cap is 413, not a 400
// blamed on its JSON, and nothing of it is admitted.
func TestDaemonOversizedBody(t *testing.T) {
	srv := newServer(t, daemon.Config{})
	srv.Start()
	big := append(unitBody(t, 1), bytes.Repeat([]byte(" "), 1<<20)...)
	if code, msg := post(context.Background(), srv, big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%q), want 413", code, msg)
	}
	// At the cap exactly is fine: trailing whitespace is still the
	// canonical shape.
	if code, msg := post(context.Background(), srv, big[:1<<20]); code != http.StatusAccepted {
		t.Fatalf("body of exactly 1 MiB: status %d (%q), want 202", code, msg)
	}
	sum, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Admitted != 1 {
		t.Fatalf("admitted %d flows, want the 1 accepted", sum.Admitted)
	}
}

// TestDaemonParkedIngestHonoursContext: a handler parked on a full feed
// answers 503 when its client goes away, says how much of the batch got
// through, and the daemon's accounting agrees.
func TestDaemonParkedIngestHonoursContext(t *testing.T) {
	// Not started yet: nothing drains the one-flow feed.
	srv := newServer(t, daemon.Config{Buffer: 1})
	if code, msg := post(context.Background(), srv, unitBody(t, 3)); code != http.StatusAccepted {
		t.Fatalf("first batch: status %d (%q)", code, msg)
	}
	// Whether the cancel lands before the handler parks or after, a batch
	// that finds no room delivers nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, msg := post(ctx, srv, unitBody(t, 5))
	if code != http.StatusServiceUnavailable || !strings.Contains(msg, "0 of 5 flows accepted") {
		t.Fatalf("parked batch: status %d (%q), want 503 with 0 of 5 accepted", code, msg)
	}
	srv.Start()
	sum, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Admitted != 3 || sum.Completed != 3 {
		t.Fatalf("admitted %d, completed %d; want the first batch's 3", sum.Admitted, sum.Completed)
	}
}

// TestIngestMetrics: /metrics counts POST /flows by status, the flows
// handed over, and the bodies that missed the one-pass decoder.
func TestIngestMetrics(t *testing.T) {
	srv := newServer(t, daemon.Config{})
	srv.Start()
	for _, tc := range []struct {
		body string
		want int
	}{
		{string(unitBody(t, 4)), http.StatusAccepted},
		{`{"FLOWS":[{"In":0,"OUT":1,"demand":1}]}`, http.StatusAccepted}, // valid, not canonical
		{`{"flows":[`, http.StatusBadRequest},                            // encoding/json's to reject
		{`{"flows":[{"in":99,"out":0,"demand":1}]}`, http.StatusBadRequest},
		{strings.Repeat(" ", 1<<20+1), http.StatusRequestEntityTooLarge},
	} {
		if code, msg := post(context.Background(), srv, []byte(tc.body)); code != tc.want {
			t.Fatalf("%.40q: status %d (%q), want %d", tc.body, code, msg, tc.want)
		}
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	post(context.Background(), srv, unitBody(t, 1)) // draining: 503
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"# TYPE flowsched_ingest_requests_total counter",
		`flowsched_ingest_requests_total{code="202"} 2`,
		`flowsched_ingest_requests_total{code="400"} 2`,
		`flowsched_ingest_requests_total{code="413"} 1`,
		`flowsched_ingest_requests_total{code="503"} 1`,
		"flowsched_ingest_flows_total 5",
		"flowsched_ingest_decode_fallback_total 2",
		"# TYPE flowsched_ingest_feed_flows gauge",
		"flowsched_ingest_feed_flows 0",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// discard is a ResponseWriter that keeps nothing but the status.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(code int)        { d.code = code }

// handlerAllocs is what one POST /flows of a canonical body costs in heap
// objects, whatever the batch size: the limit reader and the Content-Type
// header value. The body buffer and the decode scratch come from pools,
// the feed copies the flows into slabs it recycles, and the ack is
// written from the body buffer.
const handlerAllocs = 2

// handlerBytes bounds the heap bytes one 256-flow POST /flows costs.
const handlerBytes = 1024

// TestHandleFlowsAllocs pins the ingest edge's allocations on the body
// the benchmark posts, on a warm feed at DefaultBuffer: their count (28
// before the one-pass decoder: the JSON decoder, its buffer and the slice
// it grew by doubling), and their bytes (8 KB and more before the decode
// scratch was pooled and the feed recycled its slabs).
func TestHandleFlowsAllocs(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops buffers on purpose, so the body buffer is reallocated")
			}
		}
	}
	// The byte count is the whole heap's. A small pending cap lets the
	// runtime reach its reserved size during the warm-up, so its arena
	// growing is not read as the handler's bytes.
	srv := newServer(t, daemon.Config{MaxPending: 1024})
	srv.Start()
	body := unitBody(t, 256)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/flows", rd)
	w := &discard{h: http.Header{}}
	handler := srv.Handler()
	serve := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		handler.ServeHTTP(w, req)
	}
	// Warm the feed: its free list fills with the slabs the runtime has
	// read out, up to the two buffers' worth a full feed can hold.
	for range 8 * daemon.DefaultBuffer / 256 {
		serve()
	}
	got := testing.AllocsPerRun(200, serve)
	if w.code != http.StatusAccepted {
		t.Fatalf("status %d", w.code)
	}
	// NopCloser is the test's own allocation.
	if got-1 > handlerAllocs {
		t.Errorf("POST /flows of 256 flows: %.0f allocations, want at most %d", got-1, handlerAllocs)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	b := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("POST /flows of 256 flows: %.0f allocations, %d heap bytes", got-1, b)
	if b > handlerBytes {
		t.Errorf("POST /flows of 256 flows: %d heap bytes, want at most %d", b, handlerBytes)
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestAcceptedBody: the 202 body is byte for byte what json.Encoder
// writes for {"accepted":N}.
func TestAcceptedBody(t *testing.T) {
	srv := newServer(t, daemon.Config{})
	srv.Start()
	for _, n := range []int{1, 9, 10, 256, 1000} {
		code, msg := post(context.Background(), srv, unitBody(t, n))
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(struct {
			Accepted int `json:"accepted"`
		}{n})
		if code != http.StatusAccepted || msg != want.String() {
			t.Errorf("%d flows: status %d, body %q; want 202, %q", n, code, msg, want.String())
		}
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// FuzzHandleFlows posts arbitrary bytes to a live server: it must not
// panic, must answer 202, 400 or 413, and must admit exactly the flows
// it acknowledged.
func FuzzHandleFlows(f *testing.F) {
	for _, seed := range []string{
		`{"flows":[{"in":0,"out":1,"demand":1},{"in":7,"out":7,"demand":1}]}`,
		`{"flows":[{"in":0,"out":1,"demand":1,"release":5}]}`,
		`{"FLOWS":[{"IN":1,"OUT":2,"DEMAND":1}]}`,
		`{"flows":[{"in":8,"out":0,"demand":1}]}`,
		`{"flows":[{"in":0,"out":0,"demand":0}]}`,
		`{"flows":[{}]}`,
		`{"flows":[]}`,
		`{"flows":[{"in":1e0}]}`,
		`{"flows":[{"in":0,"out":1,"demand":1}]} trailing`,
		`{"flows":[{"in":0,"out":1,"demand":1}],"flows":[]}`,
		`{"flows":[{"in":0,"out":1,"demand":1},`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := newServer(t, daemon.Config{})
		srv.Start()
		code, msg := post(context.Background(), srv, body)
		var accepted int64
		switch code {
		case http.StatusAccepted:
			var ack struct{ Accepted int64 }
			if err := json.Unmarshal([]byte(msg), &ack); err != nil || ack.Accepted < 1 {
				t.Errorf("202 with body %q (%v)", msg, err)
			}
			accepted = ack.Accepted
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Errorf("status %d (%q)", code, msg)
		}
		sum, err := srv.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if sum.Admitted != accepted || sum.Completed != accepted {
			t.Errorf("acknowledged %d flows, admitted %d, completed %d", accepted, sum.Admitted, sum.Completed)
		}
	})
}

// BenchmarkHandleFlows is the handler alone on the benchmark's body
// shape, a runtime draining alongside.
func BenchmarkHandleFlows(b *testing.B) {
	for _, n := range []int{1, 256} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			srv := newServer(b, daemon.Config{})
			srv.Start()
			body := unitBody(b, n)
			handler := srv.Handler()
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/flows", bytes.NewReader(body)))
				if rec.Code != http.StatusAccepted {
					b.Fatalf("status %d", rec.Code)
				}
			}
			if _, err := srv.Drain(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
