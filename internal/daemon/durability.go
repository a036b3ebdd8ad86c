package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"flowsched/internal/chkpt"
	"flowsched/internal/stream"
)

// This file is the daemon's durability surface: checkpoint capture and
// persistence (periodic, on demand, and post-drain) and the live-reload
// endpoint. Both ride the runtime's quiescent-point control mailbox, so
// neither stalls the round loop.

// ErrNoCheckpointPath reports a checkpoint request against a server
// started without a checkpoint path.
var ErrNoCheckpointPath = errors.New("daemon: no checkpoint path configured")

// checkpointTimeout bounds how long a periodic or drain-time checkpoint
// waits for the runtime's quiescent point; the capture is serviced
// between rounds, so anything close to this means the runtime is wedged.
const checkpointTimeout = 10 * time.Second

// CheckpointNow captures a quiescent checkpoint and writes it atomically
// to the configured path, returning the image that was persisted.
// Serialized with reloads: the file records the scheduling configuration
// that was live when the state was captured. An attempt that fails — in
// the capture or in the write — counts once in
// flowsched_checkpoint_errors_total; a refusal is not an attempt.
func (s *Server) CheckpointNow(ctx context.Context) (*chkpt.Checkpoint, error) {
	if s.ckptPath == "" {
		return nil, ErrNoCheckpointPath
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	st, err := s.rt.CheckpointState(ctx, nil)
	if err != nil {
		s.ckptErrors++
		return nil, fmt.Errorf("daemon: checkpoint capture: %w", err)
	}
	ck := chkpt.FromState(&st, s.schedCfg)
	if err := chkpt.Save(s.ckptPath, ck); err != nil {
		s.ckptErrors++
		return nil, fmt.Errorf("daemon: %w", err)
	}
	s.ckptWrites++
	s.ckptLastRound = int64(ck.Round)
	return ck, nil
}

// checkpointLoop writes a checkpoint every ckptEvery until the round
// loop ends. Failures are counted by CheckpointNow and exposed on
// /metrics rather than killing the daemon — the next tick retries.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.ckptEvery)
	defer t.Stop()
	for {
		select {
		case <-s.runDone:
			return
		case <-t.C:
			s.checkpointTick()
		}
	}
}

// checkpointTick is one periodic attempt. Its error is dropped here
// because CheckpointNow has already counted it.
func (s *Server) checkpointTick() {
	ctx, cancel := context.WithTimeout(context.Background(), checkpointTimeout)
	defer cancel()
	_, _ = s.CheckpointNow(ctx)
}

// checkpointResponse is the POST /checkpoint body: where the image went
// and what it covers.
type checkpointResponse struct {
	Path    string `json:"path"`
	Round   int    `json:"round"`
	Pending int    `json:"pending"`
}

// handleCheckpoint writes a checkpoint on demand.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	ck, err := s.CheckpointNow(r.Context())
	switch {
	case errors.Is(err, ErrNoCheckpointPath):
		http.Error(w, "checkpointing disabled: start the daemon with a checkpoint path", http.StatusConflict)
		return
	case err != nil:
		http.Error(w, fmt.Sprintf("checkpoint failed: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(checkpointResponse{Path: s.ckptPath, Round: ck.Round, Pending: ck.Pending})
}

// reloadRequest is the POST /reload body. Every field is optional:
// omitted fields keep their current value. Switching Admit away from
// "deadline" resets the deadline to zero unless one is given explicitly.
type reloadRequest struct {
	Policy     string `json:"policy,omitempty"`
	MaxPending int    `json:"max_pending,omitempty"`
	Admit      string `json:"admit,omitempty"`
	Deadline   *int   `json:"deadline,omitempty"`
}

// reloadResponse echoes the configuration now live.
type reloadResponse struct {
	Policy     string `json:"policy"`
	MaxPending int    `json:"max_pending"`
	Admit      string `json:"admit"`
	Deadline   int    `json:"deadline"`
}

// handleReload swaps the scheduling policy and admission settings at the
// runtime's next quiescent point without dropping the pending set.
// Invalid requests change nothing and report 400; a reload during a
// drain answers 503 with Retry-After (it never clears, but a draining
// daemon already advertises itself via /healthz).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining: configuration is frozen", http.StatusServiceUnavailable)
		return
	}

	// Serialized with checkpoints so every persisted checkpoint records
	// the configuration that was actually live at its capture point.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	rc := stream.ReloadConfig{
		Policy:     s.schedCfg.Policy,
		MaxPending: s.schedCfg.MaxPending,
		Admit:      s.schedCfg.Admit,
		Deadline:   s.schedCfg.Deadline,
	}
	if req.Policy != "" {
		pol := stream.ByName(req.Policy)
		if pol == nil {
			http.Error(w, fmt.Sprintf("unknown policy %q (native streaming policies: %v)", req.Policy, stream.Names()), http.StatusBadRequest)
			return
		}
		rc.Policy = pol
	}
	if req.MaxPending != 0 {
		rc.MaxPending = req.MaxPending
	}
	if req.Admit != "" {
		mode, err := stream.ParseAdmitMode(req.Admit)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rc.Admit = mode
		if mode != stream.AdmitDeadline {
			rc.Deadline = 0
		}
	}
	if req.Deadline != nil {
		rc.Deadline = *req.Deadline
	}
	if err := s.reloadLocked(r.Context(), rc); err != nil {
		http.Error(w, fmt.Sprintf("reload rejected: %v", err), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reloadResponse{
		Policy:     rc.Policy.Name(),
		MaxPending: rc.MaxPending,
		Admit:      rc.Admit.String(),
		Deadline:   rc.Deadline,
	})
}

// Reload swaps the scheduling policy and admission settings at the
// runtime's next quiescent point without dropping the pending set; the
// new configuration is what later checkpoints record. This is the same
// path POST /reload takes; cmd/flowschedd drives it on SIGHUP.
func (s *Server) Reload(ctx context.Context, rc stream.ReloadConfig) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.reloadLocked(ctx, rc)
}

// reloadLocked applies rc and records it in schedCfg; ckptMu held.
func (s *Server) reloadLocked(ctx context.Context, rc stream.ReloadConfig) error {
	if err := s.rt.Reload(ctx, rc); err != nil {
		return err
	}
	s.schedCfg.Policy = rc.Policy
	s.schedCfg.MaxPending = rc.MaxPending
	s.schedCfg.Admit = rc.Admit
	s.schedCfg.Deadline = rc.Deadline
	return nil
}

// writeCkptMetrics appends the checkpoint gauges to the Prometheus
// exposition; only emitted when checkpointing is configured.
func (s *Server) writeCkptMetrics(w io.Writer) {
	s.ckptMu.Lock()
	writes, errs, last := s.ckptWrites, s.ckptErrors, s.ckptLastRound
	s.ckptMu.Unlock()
	fmt.Fprintf(w, "# HELP flowsched_checkpoint_writes_total Checkpoint files written successfully.\n")
	fmt.Fprintf(w, "# TYPE flowsched_checkpoint_writes_total counter\n")
	fmt.Fprintf(w, "flowsched_checkpoint_writes_total %d\n", writes)
	fmt.Fprintf(w, "# HELP flowsched_checkpoint_errors_total Checkpoint captures or writes that failed.\n")
	fmt.Fprintf(w, "# TYPE flowsched_checkpoint_errors_total counter\n")
	fmt.Fprintf(w, "flowsched_checkpoint_errors_total %d\n", errs)
	fmt.Fprintf(w, "# HELP flowsched_checkpoint_last_round Round the most recent checkpoint was consistent at.\n")
	fmt.Fprintf(w, "# TYPE flowsched_checkpoint_last_round gauge\n")
	fmt.Fprintf(w, "flowsched_checkpoint_last_round %d\n", last)
}
