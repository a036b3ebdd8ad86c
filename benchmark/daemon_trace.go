package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"flowsched"
	"flowsched/internal/daemon"
)

const (
	openRate    = 1000 // open-loop POSTs per second
	openWorkers = 64   // senders the open loop may have in flight
	sweepPosts  = 4096 // POSTs per batch size in the sweep
)

// daemonTraced is the per-layer run of daemon_ingest. Against the real
// daemon: closed-loop passes with a /metrics scraper beside them, a
// batch-size sweep, an open loop, and the drain tail. Then, in this
// process and on the same bodies, three stages that peel the trip apart:
// a = handler behind a real listener, b = handler without sockets, c =
// ChanSource.Push alone.
func (r *run) daemonTraced() error {
	flows, bodies, err := r.ingest()
	if err != nil {
		return err
	}
	tr := newTracer(r.w.name)
	root := tr.begin("run", noParent)
	phase := tr.stage(&root)

	s, err := r.open(bodies[:min(warmFlows/postBatch, len(bodies))])
	if err != nil {
		return err
	}
	shut := func() *flowsched.StreamSummary { sum := s.shut(r); s = nil; return sum }
	defer func() {
		if s != nil {
			shut()
		}
	}()

	// Closed loop at the gated batch size, scraped at 10 Hz.
	var (
		trips          []trip
		cost           usage
		sent           int
		scrapeUS, size []float64
	)
	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				start := time.Now()
				resp, err := http.Get(s.t.url() + "/metrics")
				if err != nil {
					continue
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				scrapeUS = append(scrapeUS, float64(time.Since(start).Nanoseconds())/1e3)
				size = append(size, float64(n))
			}
		}
	}()
	own := cpuSeconds()
	closed := tr.begin("daemon.closed_loop", root)
	for start := time.Now(); err == nil && (sent == 0 || time.Since(start).Seconds() < r.opt.seconds*0.3); {
		var p rep
		p, err = r.pass(s, bodies, postBatch)
		trips, sent = append(trips, p.trips...), sent+len(bodies)*postBatch
		cost = usage{cost.cpu + p.cost.cpu, cost.bytes + p.cost.bytes, cost.mallocs + p.cost.mallocs}
	}
	tr.finish(closed)
	own = cpuSeconds() - own
	close(stop)
	side.Wait()
	if err != nil {
		return err
	}
	// One span per connection under the closed loop, one per POST under
	// its connection: the two connections run side by side.
	var conns [connections]int32
	for c := range conns {
		conns[c] = tr.add("daemon.connection", closed, tr.spans[closed].start, tr.spans[closed].end, false)
	}
	for _, t := range trips {
		at := int64(t.start.Sub(tr.epoch))
		tr.add("daemon.post", conns[t.conn], at, at+int64(t.seconds*1e9), false)
	}
	p50, p99 := tripQuantiles(trips)
	r.set("daemon.post_us_p50", p50)
	r.set("daemon.post_us_p99", p99)
	r.set("daemon.post_us_p50.b256", p50)
	r.set("daemon.post_us_p99.b256", p99)
	r.set("daemon.metrics_scrape_us_p50", median(scrapeUS))
	r.set("daemon.metrics_bytes", median(size))
	r.set("bench.loadgen_cpu_us_per_flow", 1e6*own/float64(sent))
	r.set("daemon.alloc_bytes_per_flow", cost.bytes/float64(sent))
	r.set("daemon.allocs_per_flow", cost.mallocs/float64(sent))
	wire := 0
	for _, b := range bodies {
		wire += len(b)
	}
	r.set("daemon.body_bytes_per_flow", float64(wire)/float64(len(bodies)*postBatch))

	// Batch-size sweep: per-request cost dominates at 1 flow per POST.
	for _, batch := range []int{1, 16} {
		small, err := marshalBodies(flows[:min(sweepPosts*batch/r.opt.scale, len(flows))], batch)
		if err != nil {
			return err
		}
		var p rep
		phase(fmt.Sprintf("daemon.sweep.b%d", batch), func() { p, err = r.pass(s, small, batch) })
		if err != nil {
			return err
		}
		p50, p99 := tripQuantiles(p.trips)
		r.set(fmt.Sprintf("daemon.post_us_p50.b%d", batch), p50)
		r.set(fmt.Sprintf("daemon.post_us_p99.b%d", batch), p99)
		r.set(fmt.Sprintf("daemon.flows_per_s.b%d", batch), float64(len(small)*batch)/p.wall)
	}

	phase("daemon.open_loop", func() { err = r.openLoop(s, bodies, r.opt.seconds*0.15) })
	if err != nil {
		return err
	}

	var sum *flowsched.StreamSummary
	start := time.Now()
	phase("daemon.drain", func() { sum = shut() })
	r.set("daemon.drain_tail_ms", float64(time.Since(start).Nanoseconds())/1e6)
	if sum != nil {
		r.set("daemon.avg_response_rounds", sum.AvgResponse)
		r.set("daemon.max_response_rounds", float64(sum.MaxResponse))
	}

	phase("daemon.stages", func() { err = r.stages(flows, bodies) })
	if err != nil {
		return err
	}
	tr.finish(root)
	if err := tr.write(r.opt.outDir); err != nil {
		return err
	}
	tr.printLayers(r.opt.log)
	return nil
}

// tripQuantiles is the median and 99th percentile round trip in µs over
// the POSTs that succeeded.
func tripQuantiles(trips []trip) (p50, p99 float64) {
	var us []float64
	for _, t := range trips {
		if t.seconds > 0 {
			us = append(us, t.seconds*1e6)
		}
	}
	return median(us), quantile(us, 0.99)
}

// openLoop posts at openRate per second on a fixed schedule for about
// seconds, timing each POST from when it was due — so a stall charges
// every request queued behind it — and reports how late the generator
// itself sent. Informational: on shared cores it does not repeat well.
func (r *run) openLoop(s *session, bodies [][]byte, seconds float64) error {
	n := max(int(seconds*openRate), 16)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: openWorkers}}
	defer client.CloseIdleConnections()
	var (
		mu         sync.Mutex
		lat, late  []float64
		failures   int
		wg         sync.WaitGroup
		inFlight   = make(chan struct{}, openWorkers)
		interval   = time.Second / openRate
		start      = time.Now()
		flowsAcked int64
	)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		inFlight <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-inFlight; wg.Done() }()
			sentAt := time.Now()
			resp, err := client.Post(s.t.url()+"/flows", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
			ok := err == nil
			if ok {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusAccepted
			}
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				failures++
				return
			}
			flowsAcked += postBatch
			lat = append(lat, float64(time.Since(due).Nanoseconds())/1e3)
			late = append(late, float64(sentAt.Sub(due).Nanoseconds())/1e3)
		}()
	}
	wg.Wait()
	s.g.sent += flowsAcked
	r.attempted += int64(n * postBatch)
	if failures > 0 {
		r.fail(failures*postBatch, "open loop: %d of %d POSTs failed", failures, n)
	}
	r.set("daemon.open_p50_us", median(lat))
	r.set("daemon.open_p99_us", quantile(lat, 0.99))
	r.set("daemon.open_late_p99_us", quantile(late, 0.99))
	return s.g.settle()
}

// stages attributes the daemon's per-flow cost in this process: the same
// bodies through a = the handler behind an httptest listener, b = the
// handler called directly with a response recorder, c = ChanSource.Push
// straight into a runtime. Transport is a minus b, decode and validation
// b minus c. Every stage feeds from connections goroutines.
func (r *run) stages(flows []flowsched.Flow, bodies [][]byte) error {
	w := r.w
	n := float64(len(bodies) * postBatch)

	// a: real sockets, in-process daemon.
	local, err := startLocal(w)
	if err != nil {
		return err
	}
	a := &session{t: local, g: newLoadgen(local.url())}
	pa, err := r.pass(a, bodies, postBatch)
	a.shut(r)
	if err != nil {
		return err
	}

	// b: the handler alone.
	srv, err := newServer(w)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	start := time.Now()
	refused := feed(len(bodies), func(i int) bool {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/flows", bytes.NewReader(bodies[i])))
		return rec.Code == http.StatusAccepted
	})
	sum, err := srv.Drain()
	wallB := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	r.check(refused == 0 && sum.Completed == int64(n), "bare handler: %d bodies refused, %d of %.0f flows completed", refused, sum.Completed, n)

	// c: Push alone, then once more with every Push timed for its tail.
	var waits []float64
	var wallC float64
	for _, timed := range []bool{false, true} {
		src := flowsched.NewChanSource(daemon.DefaultBuffer)
		rt, err := flowsched.NewStreamRuntime(src, w.streamConfig())
		if err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() { _, err := rt.Run(); done <- err }()
		var mu sync.Mutex
		start := time.Now()
		refused := feed(len(bodies), func(i int) bool {
			var local []float64
			for _, f := range flows[i*postBatch : (i+1)*postBatch] {
				t0 := time.Time{}
				if timed {
					t0 = time.Now()
				}
				if !src.Push(f) {
					return false
				}
				if timed {
					local = append(local, float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
			if timed {
				mu.Lock()
				waits = append(waits, local...)
				mu.Unlock()
			}
			return true
		})
		src.Close()
		if err := <-done; err != nil {
			return err
		}
		if !timed {
			wallC = time.Since(start).Seconds()
		}
		r.check(refused == 0, "direct push: %d batches refused", refused)
	}

	r.set("daemon.handler_us_per_flow", 1e6*wallB/n)
	r.set("daemon.transport_us_per_flow", 1e6*(pa.wall-wallB)/n)
	r.set("daemon.decode_us_per_flow", 1e6*(wallB-wallC)/n)
	r.set("workload.push_ns_per_flow", 1e9*wallC/n)
	r.set("workload.push_wait_p99_us", quantile(waits, 0.99))
	return nil
}

// feed calls do(i) for every i in [0, n) from connections goroutines,
// index i on goroutine i mod connections, and counts the refusals.
func feed(n int, do func(i int) bool) (refused int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n; i += connections {
				if !do(i) {
					mu.Lock()
					refused++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return refused
}
