package daemon

import (
	"context"

	"flowsched/internal/stream"
)

// Drain is the graceful shutdown sequence: refuse new ingest, wait out
// the in-flight ingest handlers, close the feed — which unparks an idle
// round loop — and wait for the runtime to finish every flow already
// accepted. The returned summary is final: Pending is zero and
// Admitted == Completed + Dropped + Expired. When a checkpoint path is
// configured, the drained state is persisted as a final checkpoint
// (pending set empty, counters exact), so a later restart continues the
// cumulative accounting; a failed final write is reported as the drain
// error when the run itself succeeded. Idempotent; concurrent callers
// all get the same summary.
func (s *Server) Drain() (*stream.Summary, error) {
	s.drainOnce.Do(func() {
		s.setDraining()
		s.ingest.Wait()
		s.src.Close()
		if s.ckptPath != "" {
			// The final checkpoint must capture the drained state, not a
			// mid-drain one: wait for the round loop first (the capture then
			// reads the quiescent state directly).
			<-s.runDone
			ctx, cancel := context.WithTimeout(context.Background(), checkpointTimeout)
			defer cancel()
			if _, err := s.CheckpointNow(ctx); err != nil {
				s.finalCkptErr = err
			}
		}
	})
	sum, err := s.Wait()
	if err == nil {
		err = s.finalCkptErr
	}
	return sum, err
}

// Stop is the hard stop: pending flows are abandoned where Drain would
// finish them. The runtime still finishes the round in flight — its
// picks are checked and retire in it — and counts its last verification
// window, so the summary's accounting balances; Pending just need not be
// zero.
func (s *Server) Stop() (*stream.Summary, error) {
	s.setDraining()
	s.rt.Stop()
	// Closing the feed releases handlers parked in PushBatch.
	s.src.Close()
	return s.Wait()
}

// setDraining flips the ingest gate; handlers refuse new batches after
// it returns.
func (s *Server) setDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// beginIngest joins the ingest WaitGroup unless the server is draining;
// the caller must call s.ingest.Done() when it reports true.
func (s *Server) beginIngest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.ingest.Add(1)
	return true
}
