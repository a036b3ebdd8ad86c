package stream

import (
	"fmt"

	"flowsched/internal/switchnet"
)

// AdmitMode selects how the runtime behaves when it cannot serve every
// arrival: lossless backpressure (the default), shedding on a full
// pending set, or deadline expiry of aged pending flows. See the package
// docs ("Admission modes") for the exact semantics and what each mode
// counts.
type AdmitMode int

const (
	// AdmitLossless stalls the source while the pending set is full:
	// nothing is ever dropped, late admissions count as Backpressured,
	// and response times stay charged from the original release round.
	AdmitLossless AdmitMode = iota
	// AdmitDrop sheds arrivals released while the pending set is full:
	// they are consumed from the source, never scheduled, and counted in
	// Summary.Dropped. The source is never stalled.
	AdmitDrop
	// AdmitDeadline expires pending flows that can no longer complete
	// within Config.Deadline rounds of their release: they leave the
	// pending set unscheduled and count in Summary.Expired, so every
	// completed flow satisfies response <= Deadline.
	AdmitDeadline
)

// String returns the mode's flag spelling ("lossless", "drop",
// "deadline").
func (m AdmitMode) String() string {
	switch m {
	case AdmitLossless:
		return "lossless"
	case AdmitDrop:
		return "drop"
	case AdmitDeadline:
		return "deadline"
	}
	return fmt.Sprintf("AdmitMode(%d)", int(m))
}

// ParseAdmitMode resolves a flag spelling to its mode.
func ParseAdmitMode(s string) (AdmitMode, error) {
	switch s {
	case "lossless", "":
		return AdmitLossless, nil
	case "drop":
		return AdmitDrop, nil
	case "deadline":
		return AdmitDeadline, nil
	}
	return 0, fmt.Errorf("stream: unknown admission mode %q (lossless, drop, deadline)", s)
}

// validateAdmit checks an admission mode against its deadline.
func validateAdmit(mode AdmitMode, deadline int) error {
	switch mode {
	case AdmitLossless, AdmitDrop:
		if deadline != 0 {
			return fmt.Errorf("Deadline %d is set but Admit is %s (deadlines need AdmitDeadline)", deadline, mode)
		}
	case AdmitDeadline:
		if deadline <= 0 {
			return fmt.Errorf("AdmitDeadline needs a positive Deadline, got %d", deadline)
		}
	default:
		return fmt.Errorf("unknown admission mode %d", int(mode))
	}
	return nil
}

// checkFlow validates the stream contract for a consumed flow — releases
// non-decreasing, flow admissible on the switch — whether it is admitted
// or shed, so a malformed source fails the run even under AdmitDrop.
func (rt *Runtime) checkFlow(f *switchnet.Flow) error {
	if f.Release < rt.lastRel {
		return fmt.Errorf("stream: source yielded release %d after %d (must be non-decreasing)", f.Release, rt.lastRel)
	}
	rt.lastRel = f.Release
	if !rt.sw.Admits(f) {
		return fmt.Errorf("stream: inadmissible flow: %w", rt.sw.ValidateFlow(*f))
	}
	return nil
}

// route validates f, assigns its admission sequence number, and threads
// it into the pending store (admitFlow). Returns the number backpressured
// (0 or 1) for metric batching.
func (rt *Runtime) route(f *switchnet.Flow) (int, error) {
	if err := rt.checkFlow(f); err != nil {
		return 0, err
	}
	rt.admitFlow(f, rt.seq)
	rt.seq++
	if f.Release < rt.round {
		return 1, nil
	}
	return 0, nil
}

// dropChunk is the batch size for shedding a released backlog under
// AdmitDrop: large enough to amortize the interface call, small enough
// that the reused batch buffer stays cache-resident.
const dropChunk = 512

// admit is the one admission pass: it routes the flow an idle step
// fetched (the pending set was empty then, so there is room), then drains
// everything the source has released by this round into the pending
// store, MaxPending-count flows at a time, until a short batch says
// nothing more is released. At the limit AdmitDrop keeps draining in
// dropChunk batches and sheds them; the other modes stop and leave the
// backlog in the source. The pass's counter updates go to the
// snapshot-visible atomics in one batch.
func (rt *Runtime) admit() error {
	arrived, backpressured, dropped := 0, 0, 0
	if rt.haveLook {
		bp, err := rt.route(&rt.look)
		if err != nil {
			return err
		}
		arrived++
		backpressured += bp
		rt.haveLook = false
	}
	for {
		want := rt.cfg.MaxPending - rt.count
		if want <= 0 {
			if rt.cfg.Admit != AdmitDrop {
				break
			}
			want = dropChunk
		}
		rt.batch = rt.src.PullBatch(rt.batch[:0], rt.round, want)
		for i := range rt.batch {
			f := &rt.batch[i]
			if rt.count < rt.cfg.MaxPending {
				bp, err := rt.route(f)
				if err != nil {
					return err
				}
				backpressured += bp
			} else {
				if err := rt.checkFlow(f); err != nil {
					return err
				}
				dropped++
			}
		}
		arrived += len(rt.batch)
		if len(rt.batch) < want {
			break
		}
	}
	if arrived == 0 {
		return nil
	}
	if rt.rec != nil {
		rt.recArrived += int64(arrived)
		rt.recDropped += int64(dropped)
	}
	rt.mAdmitted.Add(int64(arrived))
	if backpressured > 0 {
		rt.mBackpressured.Add(int64(backpressured))
	}
	if dropped > 0 {
		rt.mDropped.Add(int64(dropped))
	}
	if rt.count > rt.peak {
		rt.peak = rt.count
		rt.mPeak.Store(int64(rt.peak))
	}
	return nil
}

// idle is the step of a runtime with nothing pending and nothing
// released: it fetches the next flow — Park(wake) on a Parker source,
// Next otherwise — holds it as the lookahead and jumps the clock to its
// release, or ends the run when the stream has. On a concurrently-fed
// source this is where the runtime waits; a wake (a queued mailbox
// closure, a Stop) returns without a flow and the next step serves it.
func (rt *Runtime) idle() (done bool, err error) {
	var f switchnet.Flow
	var ok bool
	if rt.parker != nil {
		var woke bool
		if f, ok, woke = rt.parker.Park(rt.wake); woke {
			return false, nil
		}
	} else {
		f, ok = rt.src.Next()
	}
	if !ok {
		return true, rt.src.Err()
	}
	rt.look, rt.haveLook = f, true
	if f.Release > rt.round {
		rt.setRound(f.Release)
	}
	return false, nil
}

// expire unthreads pending flows that can no longer meet the deadline,
// counts them in Summary.Expired and returns how many: completing a flow
// this round gives it response round+1-release, so any flow with
// round+1-release > Deadline is past saving. The admission list follows
// source order and releases are non-decreasing along it, so walking from
// the head and stopping at the first survivor sees every expirable flow,
// whatever its scope. Runs after the previous round's retire (no retired
// flow is still threaded) and before any Pick (an expired flow is never
// scheduled), which keeps the schedule verifier-clean and deterministic.
//
//flowsched:hotpath
func (rt *Runtime) expire() int {
	rec := rt.ar.rec
	horizon := int64(rt.round + 1 - rt.cfg.Deadline)
	n := 0
	for rt.head != noID && rec[rt.head].rel < horizon {
		rt.depart(rt.head)
		n++
	}
	if n > 0 {
		rt.mExpired.Add(int64(n))
	}
	return n
}
