package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"flowsched/internal/switchnet"
)

// maxIngestBody bounds one POST /flows body (1 MiB ≈ 20k flows).
const maxIngestBody = 1 << 20

// bodyPool recycles the buffers request bodies are read into. A buffer
// grows to the largest body it has held, which maxIngestBody caps.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// flowsPool recycles the scratch slices bodies are decoded into; the feed
// copies what it is handed, so a scratch is free again once PushBatch
// returns. A scratch keeps what decoding grew it to, up to maxPooledFlows:
// a larger one, which only a degenerate body needs, is left to the GC.
var flowsPool = sync.Pool{New: func() any { return new([]switchnet.Flow) }}

// maxPooledFlows bounds a pooled scratch slice to 1 MiB of flows.
const maxPooledFlows = 1 << 15

// ingestCodes are the statuses POST /flows answers with.
var ingestCodes = [...]int{
	http.StatusAccepted,
	http.StatusBadRequest,
	http.StatusRequestEntityTooLarge,
	http.StatusServiceUnavailable,
}

// ingestStats are the ingest edge's counters behind /metrics.
type ingestStats struct {
	requests [len(ingestCodes)]atomic.Int64 // by status, indexed as ingestCodes
	flows    atomic.Int64                   // flows handed to the feed
	fallback atomic.Int64                   // bodies decoded by encoding/json, not the scanner
}

// answered counts one POST /flows response.
func (st *ingestStats) answered(code int) {
	for i, c := range ingestCodes {
		if c == code {
			st.requests[i].Add(1)
		}
	}
}

// refuse answers a POST /flows that is not accepted.
func (s *Server) refuse(w http.ResponseWriter, code int, msg string) {
	s.stats.answered(code)
	http.Error(w, msg, code)
}

// handleFlows ingests one batch. The whole batch is validated against
// the switch before anything is pushed: the runtime treats an
// inadmissible flow as a fatal stream error (it would abort the run), so
// garbage must be rejected at the door, atomically per batch. A valid
// batch is handed to the feed as one slice, which the feed copies, so the
// pooled scratch it was decoded into goes back to the pool after.
func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	if !s.beginIngest() {
		s.refuse(w, http.StatusServiceUnavailable, "draining: no new flows accepted")
		return
	}
	defer s.ingest.Done()

	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyPool.Put(buf)
	if n := r.ContentLength; n > 0 && n <= maxIngestBody {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxIngestBody)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.refuse(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body over %d bytes: send smaller batches", tooLarge.Limit))
			return
		}
		s.refuse(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	scratch := flowsPool.Get().(*[]switchnet.Flow)
	defer flowsPool.Put(scratch)
	flows, fallback, err := decodeFlows(buf.Bytes(), (*scratch)[:0])
	if fallback {
		s.stats.fallback.Add(1)
	} else if cap(flows) <= maxPooledFlows {
		*scratch = flows // keep what it grew to
	}
	if err != nil {
		s.refuse(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(flows) == 0 {
		s.refuse(w, http.StatusBadRequest, `no flows in batch (want {"flows":[{"in":0,"out":1,"demand":1},...]})`)
		return
	}
	for i := range flows {
		flows[i].Release = 0 // assigned at admission; validate what will run
		if err := s.sw.ValidateFlow(flows[i]); err != nil {
			s.refuse(w, http.StatusBadRequest, fmt.Sprintf("flow %d rejected: %v", i, err))
			return
		}
	}
	delivered, err := s.src.PushBatch(r.Context(), flows)
	s.stats.flows.Add(int64(delivered))
	if err != nil {
		// A concurrent Stop closed the feed mid-batch, or the client gave
		// up while the batch waited for room.
		s.refuse(w, http.StatusServiceUnavailable,
			fmt.Sprintf("stopping: %d of %d flows accepted", delivered, len(flows)))
		return
	}
	s.stats.answered(http.StatusAccepted)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	// The body is what json.Encoder writes for {"accepted":N}, built in
	// the body buffer, whose bytes are spent.
	buf.Reset()
	ack := append(buf.AvailableBuffer(), `{"accepted":`...)
	ack = strconv.AppendInt(ack, int64(len(flows)), 10)
	w.Write(append(ack, "}\n"...))
}

// healthzResponse is the GET /healthz body.
type healthzResponse struct {
	Status string `json:"status"`
	// Breaching lists the SLO targets in fast-burn breach when the
	// status is degraded.
	Breaching []string `json:"breaching,omitempty"`
}

// handleHealthz reports liveness and routing advice. A draining daemon
// answers 503 so load balancers stop routing to it — it is deliberately
// leaving the pool, and every rejected POST /flows would otherwise count
// against the caller. A daemon whose fast SLO burn rate breaches reports
// "degraded" with the breaching target names but stays 200: an
// overloaded scheduler still serves, and pulling degraded replicas from
// a pool under load would cascade the overload onto the survivors. A
// restored daemon is "ok" from its first request: its checkpointed
// backlog is resident before it serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	resp := healthzResponse{Status: "ok"}
	code := http.StatusOK
	if draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	} else if names := s.slo.Breaching(); len(names) > 0 {
		resp.Status = "degraded"
		resp.Breaching = names
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// maxTraceDefault is GET /trace's record count when ?last is absent.
const maxTraceDefault = 256

// handleTrace serves the flight recorder's most recent rounds as JSON
// Lines (one RoundRecord object per line, oldest first). ?last=N bounds
// the count; it is clamped to the ring capacity.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := maxTraceDefault
	if q := r.URL.Query().Get("last"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, fmt.Sprintf("bad last=%q: want a non-negative integer", q), http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.rec.WriteJSONL(w, n)
}

// handleSLO serves the burn-rate engine's latest evaluation as JSON.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.slo.Status())
}

// handlePilot serves the optimality pilot's latest evaluation, or 404
// when the pilot is not enabled (Config.PilotEvery == 0).
func (s *Server) handlePilot(w http.ResponseWriter, _ *http.Request) {
	if s.pilot == nil {
		http.Error(w, "optimality pilot disabled (start the daemon with a pilot cadence)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.pilot.Status())
}

// handleSnapshot serves the runtime's Summary as JSON.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.rt.Snapshot())
}

// handleMetrics serves the Prometheus text exposition: the runtime
// Summary, the ingest edge's counters, the per-phase timing histograms
// recomputed from the flight recorder at scrape time, the SLO burn-rate
// gauges, and (when enabled) the pilot's optimality gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, s.rt.Snapshot())
	s.writeIngestMetrics(w)
	writePhaseMetrics(w, s.rec)
	writeSLOMetrics(w, s.slo.Status())
	if s.pilot != nil {
		writePilotMetrics(w, s.pilot.Status())
	}
	if s.ckptPath != "" {
		s.writeCkptMetrics(w)
	}
}

// handleDrain triggers the graceful drain and responds with the final
// summary once every accepted flow is accounted for. The response can
// take as long as the backlog does; clients wanting progress can watch
// GET /snapshot meanwhile.
func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	sum, err := s.Drain()
	if err != nil {
		http.Error(w, fmt.Sprintf("drain failed: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sum)
}
