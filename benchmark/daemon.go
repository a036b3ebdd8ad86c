package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"flowsched"
	"flowsched/internal/daemon"
)

const (
	daemonSetups = 3   // set-ups per daemon_ingest run; setup_s is their median
	connections  = 2   // closed-loop keep-alive connections (<= min(nproc, 2) load goroutines)
	clockTick    = 100 // USER_HZ: /proc/<pid>/stat counts CPU in 1/100 s on Linux
	startTimeout = 20 * time.Second
	drainTimeout = 60 * time.Second
)

// usage is a daemon's cumulative cost so far.
type usage struct{ cpu, bytes, mallocs float64 }

func (a usage) sub(b usage) usage {
	return usage{a.cpu - b.cpu, a.bytes - b.bytes, a.mallocs - b.mallocs}
}

// target is a running flowschedd the load generator drives over HTTP: a
// real child process in the benchmark proper, an in-process httptest
// server in the smoke pass and in the traced stage attribution.
type target interface {
	url() string
	usage() (usage, error)
	// close releases the target after POST /drain has been answered.
	close() error
}

// childDaemon is a real cmd/flowschedd process.
type childDaemon struct {
	cmd   *exec.Cmd
	base  string
	pprof string
	log   bytes.Buffer
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startChild starts the flowschedd binary for w and waits for /healthz.
func startChild(bin string, w *workload) (*childDaemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	side, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &childDaemon{base: "http://" + addr, pprof: "http://" + side}
	d.cmd = exec.Command(bin,
		"-addr", addr, "-pprof", side,
		"-ports", strconv.Itoa(w.ports), "-cap", strconv.Itoa(w.cap),
		"-policy", w.policy, "-shards", strconv.Itoa(w.shards),
		"-maxpending", strconv.Itoa(w.maxPending))
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.log
	// The child must not outlive a benchmark that dies mid-run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	for _, base := range []string{d.base + "/healthz", d.pprof + "/debug/pprof/cmdline"} {
		if err := waitOK(base, startTimeout); err != nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
			return nil, fmt.Errorf("flowschedd did not come up: %w\n%s", err, d.log.String())
		}
	}
	return d, nil
}

// waitOK polls url until it answers 200.
func waitOK(url string, limit time.Duration) error {
	var last error
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(url)
		if err != nil {
			last = err
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		last = fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return last
}

func (d *childDaemon) url() string { return d.base }

// usage reads the child's CPU from /proc/<pid>/stat (utime+stime, fields
// 14 and 15) and its allocation totals from the "# TotalAlloc =" and
// "# Mallocs =" lines of its pprof heap profile.
func (d *childDaemon) usage() (usage, error) {
	var u usage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return u, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return u, fmt.Errorf("short /proc stat line: %q", stat)
	}
	for _, f := range rest[11:13] {
		ticks, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return u, err
		}
		u.cpu += ticks / clockTick
	}
	resp, err := http.Get(d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return u, err
	}
	defer resp.Body.Close()
	fields := []struct {
		prefix string
		dst    *float64
	}{{"# TotalAlloc = ", &u.bytes}, {"# Mallocs = ", &u.mallocs}}
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		for _, f := range fields {
			if v, ok := strings.CutPrefix(sc.Text(), f.prefix); ok {
				if *f.dst, err = strconv.ParseFloat(v, 64); err != nil {
					return u, err
				}
				found++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return u, err
	}
	if found != 2 {
		return u, errors.New("pprof heap profile carries no TotalAlloc/Mallocs lines")
	}
	return u, nil
}

// close waits for the drained child to exit, killing it if it will not.
func (d *childDaemon) close() error {
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("flowschedd exit: %w\n%s", err, d.log.String())
		}
		return nil
	case <-time.After(drainTimeout):
		d.cmd.Process.Kill()
		<-done
		return errors.New("flowschedd did not exit after its drain; killed")
	}
}

// localDaemon serves internal/daemon in this process through httptest.
type localDaemon struct {
	srv *daemon.Server
	ts  *httptest.Server
}

// newServer builds and starts internal/daemon configured as w's flowschedd.
func newServer(w *workload) (*daemon.Server, error) {
	srv, err := daemon.New(daemon.Config{
		Switch: w.fabric(), Policy: flowsched.StreamPolicyByName(w.policy),
		Shards: w.shards, MaxPending: w.maxPending,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return srv, nil
}

func startLocal(w *workload) (*localDaemon, error) {
	srv, err := newServer(w)
	if err != nil {
		return nil, err
	}
	return &localDaemon{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (d *localDaemon) url() string { return d.ts.URL }

// usage charges the whole process, load generator included: good enough
// for the smoke pass, which only needs the numbers to exist.
func (d *localDaemon) usage() (usage, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuSeconds(), bytes: float64(ms.TotalAlloc), mallocs: float64(ms.Mallocs)}, nil
}

func (d *localDaemon) close() error {
	d.ts.Close()
	_, err := d.srv.Wait()
	return err
}

// startTarget starts the daemon daemon_ingest measures.
func (r *run) startTarget() (target, error) {
	if r.opt.flowschedd == "" {
		return startLocal(r.w)
	}
	return startChild(r.opt.flowschedd, r.w)
}

// marshalBodies pre-marshals flows into POST /flows bodies of batch flows.
func marshalBodies(flows []flowsched.Flow, batch int) ([][]byte, error) {
	var bodies [][]byte
	for len(flows) > 0 {
		k := min(batch, len(flows))
		b, err := json.Marshal(struct {
			Flows []flowsched.Flow `json:"flows"`
		}{flows[:k]})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
		flows = flows[k:]
	}
	return bodies, nil
}

// genIngest draws n unit flows with uniform endpoints; the daemon assigns
// release rounds at admission, so none is set.
func genIngest(seed int64, n, ports int) []flowsched.Flow {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]flowsched.Flow, n)
	for i := range flows {
		flows[i] = flowsched.Flow{In: rng.Intn(ports), Out: rng.Intn(ports), Demand: 1}
	}
	return flows
}

// loadgen is the closed-loop client: connections keep-alive connections,
// each sending its next POST only after the previous one is answered.
type loadgen struct {
	base    string
	clients [connections]*http.Client
	sent    int64 // flows acknowledged so far, over the daemon's life
}

func newLoadgen(base string) *loadgen {
	g := &loadgen{base: base}
	for i := range g.clients {
		g.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	}
	return g
}

func (g *loadgen) closeIdle() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// trip is one POST /flows round trip; seconds is 0 where it failed.
type trip struct {
	start   time.Time
	seconds float64
	conn    int
}

// post sends one body on client c.
func (g *loadgen) post(c *http.Client, body []byte) (trip, error) {
	t := trip{start: time.Now()}
	resp, err := c.Post(g.base+"/flows", "application/json", bytes.NewReader(body))
	if err != nil {
		return t, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return t, fmt.Errorf("POST /flows: status %d", resp.StatusCode)
	}
	t.seconds = time.Since(t.start).Seconds()
	return t, nil
}

// send posts every body once, body i on connection i mod connections, and
// returns each round trip with the failures.
func (g *loadgen) send(bodies [][]byte, flowsPerBody int) (trips []trip, failures []error) {
	trips = make([]trip, len(bodies))
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(bodies); i += connections {
				var err error
				trips[i], err = g.post(g.clients[c], bodies[i])
				trips[i].conn = c
				if err != nil {
					mu.Lock()
					failures = append(failures, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	g.sent += int64((len(bodies) - len(failures)) * flowsPerBody)
	return trips, failures
}

// snapshot fetches GET /snapshot.
func (g *loadgen) snapshot() (flowsched.StreamSummary, error) {
	var sum flowsched.StreamSummary
	resp, err := g.clients[0].Get(g.base + "/snapshot")
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	return sum, json.NewDecoder(resp.Body).Decode(&sum)
}

// settle polls /snapshot every millisecond until every acknowledged flow
// is reported completed: the end of a flow's trip as a client can see it.
func (g *loadgen) settle() error {
	for deadline := time.Now().Add(drainTimeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		sum, err := g.snapshot()
		if err != nil {
			return err
		}
		if sum.Completed >= g.sent {
			return nil
		}
	}
	return fmt.Errorf("daemon did not complete %d flows within %v", g.sent, drainTimeout)
}

// drain posts /drain and returns the daemon's final summary.
func (g *loadgen) drain() (*flowsched.StreamSummary, error) {
	resp, err := g.clients[0].Post(g.base+"/drain", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /drain: status %d: %s", resp.StatusCode, msg)
	}
	var sum flowsched.StreamSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return nil, err
	}
	g.closeIdle()
	return &sum, nil
}

// session is one daemon with its client, warmed up.
type session struct {
	t target
	g *loadgen
}

// open starts a daemon and posts the warm-up bodies over the same
// connections the timed phase uses.
func (r *run) open(warm [][]byte) (*session, error) {
	t, err := r.startTarget()
	if err != nil {
		return nil, err
	}
	s := &session{t: t, g: newLoadgen(t.url())}
	_, failures := s.g.send(warm, postBatch)
	if len(failures) == 0 {
		err = s.g.settle()
	} else {
		err = failures[0]
	}
	if err != nil {
		s.shut(r)
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// shut drains the daemon, checks its final accounting and releases it.
func (s *session) shut(r *run) *flowsched.StreamSummary {
	sum, err := s.g.drain()
	r.check(err == nil, "drain: %v", err)
	if sum != nil {
		r.check(sum.Pending == 0 && sum.Admitted == sum.Completed+sum.Dropped+sum.Expired,
			"drained accounting does not balance: %+v", *sum)
		r.check(sum.Completed == s.g.sent, "daemon completed %d flows, %d were acknowledged", sum.Completed, s.g.sent)
		r.check(sum.PeakPending <= r.w.maxPending, "peak pending %d above MaxPending %d", sum.PeakPending, r.w.maxPending)
	}
	err = s.t.close()
	r.check(err == nil, "close: %v", err)
	return sum
}

// ingest generates the run's flows and marshals them into bodies.
func (r *run) ingest() (flows []flowsched.Flow, bodies [][]byte, err error) {
	start := time.Now()
	flows = genIngest(r.opt.seed, max(r.w.flows/r.opt.scale, postBatch), r.w.ports)
	bodies, err = marshalBodies(flows, postBatch)
	r.set("bench.generate_s", time.Since(start).Seconds())
	return flows, bodies, err
}

// rep is one timed closed-loop pass over every body.
type rep struct {
	wall  float64
	cost  usage
	trips []trip
}

// pass posts every body (of batch flows each) once and waits until
// /snapshot shows them completed; wall runs from the first POST sent to
// that snapshot.
func (r *run) pass(s *session, bodies [][]byte, batch int) (rep, error) {
	before, err := s.t.usage()
	if err != nil {
		return rep{}, err
	}
	start := time.Now()
	trips, failures := s.g.send(bodies, batch)
	if err := s.g.settle(); err != nil {
		return rep{}, err
	}
	wall := time.Since(start).Seconds()
	after, err := s.t.usage()
	if err != nil {
		return rep{}, err
	}
	r.attempted += int64(len(bodies) * batch)
	for _, f := range failures {
		r.fail(batch, "%v", f)
	}
	return rep{wall: wall, cost: after.sub(before), trips: trips}, nil
}

// daemonEndToEnd is the untraced run of daemon_ingest.
func (r *run) daemonEndToEnd() error {
	flows, bodies, err := r.ingest()
	if err != nil {
		return err
	}
	warm := bodies[:min(warmFlows/postBatch, len(bodies))]
	if err := r.replayQuality(flows); err != nil {
		return err
	}

	// Set-up: process start to first 200 /healthz, then the warm-up. The
	// last daemon set up is the one measured.
	var (
		setups []sample
		s      *session
	)
	for i := 0; i < daemonSetups; i++ {
		if s != nil {
			s.shut(r)
		}
		r.ref.pass()
		start := time.Now()
		if s, err = r.open(warm); err != nil {
			return err
		}
		setups = append(setups, r.ref.since(start))
	}
	r.setSetup(setups)

	var reps []sample
	for start := time.Now(); r.measuring(start, len(reps)); {
		p, err := r.pass(s, bodies, postBatch)
		if err != nil {
			s.shut(r)
			return err
		}
		reps = append(reps, r.ref.calibrated(sample{wall: p.wall, cpu: p.cost.cpu, bytes: p.cost.bytes}))
	}
	sum := s.shut(r)
	if sum == nil {
		return errors.New("no final summary")
	}
	r.setThroughput(reps, len(bodies)*postBatch)
	r.logf("%s: %d POSTs of %d flows per repeat; the daemon itself saw avg response %.3f, max %d rounds",
		r.w.name, len(bodies), postBatch, sum.AvgResponse, sum.MaxResponse)
	return nil
}

// replayQuality produces daemon_ingest's four schedule-quality metrics
// from an in-process replay, not from the daemon: the daemon stamps
// releases at admission, so its own response times depend on how two
// connections and a round loop interleave on this box (max response moved
// 30 % from run to run) and no lower bound can be computed for an arrival
// pattern nobody outside can observe. The replay offers the same flows to
// the same policy and configuration with POST body i released in round i,
// and is a function of the seed alone.
func (r *run) replayQuality(flows []flowsched.Flow) error {
	prefix := append([]flowsched.Flow(nil), flows[:min(max(r.w.quality/r.opt.scale, 1), len(flows))]...)
	for i := range prefix {
		prefix[i].Release = i / postBatch
	}
	inst := &flowsched.Instance{Switch: r.w.fabric(), Flows: prefix}
	sum, art, mrt, _, err := r.score("quality replay", inst, r.w.streamConfig(), boundsOf(inst))
	if err != nil {
		return err
	}
	r.setQuality("", sum.AvgResponse, sum.MaxResponse, art, mrt)
	return nil
}
