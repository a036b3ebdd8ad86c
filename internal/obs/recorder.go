// Package obs holds the runtime's flight recorder: a fixed-size,
// single-writer ring of per-round records the scheduler's coordinator
// writes from inside the round loop — zero steady-state allocations, no
// locks — and any number of readers drain concurrently for traces,
// scrape-time histograms, and post-mortems.
//
// The concurrency discipline is the same word-atomic single-writer
// protocol as stats.EpochWindow: the writer publishes each record with
// plain-ordered atomic word stores and then advances an atomic head
// counter; a reader snapshots the head, copies candidate slots with
// atomic loads, re-reads the head, and discards any slot the writer may
// have re-entered during the copy. A torn slot is therefore never
// returned — it is detected by the head having lapped it — and neither
// side ever blocks the other.
//
// The package depends only on the standard library, so the stream
// runtime (and anything below it) can accept a *FlightRecorder without
// an import cycle.
package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"
)

// DefaultRounds is the ring capacity used when a caller passes a
// non-positive size: enough history for a useful trace (at microsecond
// rounds, several milliseconds; at millisecond rounds, several seconds)
// at 320 KiB of memory.
const DefaultRounds = 4096

// RoundRecord is one scheduling round as the coordinator saw it: what
// moved (arrivals, scheduled departures, drops, expiries, the resident
// pending count after the round) and where the time went, split by the
// round protocol's phases. ProposeNS covers expire + pick over all
// shards (the admission pass that threads arrivals into the pending store
// is in no phase), ReconcileNS the ordering of the shards' turns (0 at
// one shard; the name and JSON key predate the turns), ApplyNS the
// round's own retirement of its picks, every round,
// and VerifyNS the time spent blocked joining the overlapped verify
// goroutine. A join happens between scheduling rounds, at a window flush,
// and is charged to the next emitted record.
type RoundRecord struct {
	Round       int64 `json:"round"`
	Arrived     int64 `json:"arrived"`
	Scheduled   int64 `json:"scheduled"`
	Dropped     int64 `json:"dropped"`
	Expired     int64 `json:"expired"`
	Pending     int64 `json:"pending"`
	ProposeNS   int64 `json:"propose_ns"`
	ReconcileNS int64 `json:"reconcile_ns"`
	ApplyNS     int64 `json:"apply_ns"`
	VerifyNS    int64 `json:"verify_ns"`
}

// recordWords is the flat ring's per-record word count; the store/load
// helpers below are the single source of truth for the layout.
const recordWords = 10

// FlightRecorder is the fixed-size round ring. One goroutine calls
// Record; any number call Last/WriteJSONL/Written concurrently.
//
// The zero value is not usable; construct with NewFlightRecorder.
type FlightRecorder struct {
	// head is the number of complete records ever written. Record k
	// (zero-based) lives in slot k % slots until lapped.
	head atomic.Int64
	// slots is rounds+1: the spare slot absorbs the record the writer
	// may be mid-storing, so the last `rounds` records are always
	// readable untorn (see the discard rule in Last).
	slots  int64
	rounds int64
	buf    []int64 // slots * recordWords words, accessed atomically
}

// NewFlightRecorder returns a ring holding the last `rounds` records
// (<= 0 selects DefaultRounds).
func NewFlightRecorder(rounds int) *FlightRecorder {
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	return &FlightRecorder{
		slots:  int64(rounds) + 1,
		rounds: int64(rounds),
		buf:    make([]int64, (rounds+1)*recordWords),
	}
}

// Cap returns the ring capacity in rounds: how much history Last can
// guarantee.
func (r *FlightRecorder) Cap() int { return int(r.rounds) }

// Written returns the total number of records ever recorded (not capped
// at the ring size).
func (r *FlightRecorder) Written() int64 { return r.head.Load() }

// Record appends one round record. Single writer only; it performs no
// locking and no heap allocation, so it is safe on an allocation-free
// hot path. The head advances after the slot's words are stored, so a
// concurrent reader either sees the whole record or discards the slot.
//
//flowsched:hotpath
func (r *FlightRecorder) Record(rec RoundRecord) {
	h := r.head.Load()
	b := (h % r.slots) * recordWords
	w := r.buf[b : b+recordWords : b+recordWords]
	atomic.StoreInt64(&w[0], rec.Round)
	atomic.StoreInt64(&w[1], rec.Arrived)
	atomic.StoreInt64(&w[2], rec.Scheduled)
	atomic.StoreInt64(&w[3], rec.Dropped)
	atomic.StoreInt64(&w[4], rec.Expired)
	atomic.StoreInt64(&w[5], rec.Pending)
	atomic.StoreInt64(&w[6], rec.ProposeNS)
	atomic.StoreInt64(&w[7], rec.ReconcileNS)
	atomic.StoreInt64(&w[8], rec.ApplyNS)
	atomic.StoreInt64(&w[9], rec.VerifyNS)
	r.head.Store(h + 1)
}

// Last appends up to n of the most recent records to dst, oldest first,
// and returns the extended slice. Records the writer may have lapped
// during the copy are discarded, so every returned record is complete
// and the returned Round sequence is strictly increasing. Safe to call
// concurrently with Record and with other readers (dst must not be
// shared between concurrent readers).
func (r *FlightRecorder) Last(dst []RoundRecord, n int) []RoundRecord {
	if n <= 0 {
		return dst
	}
	if int64(n) > r.rounds {
		n = int(r.rounds)
	}
	h1 := r.head.Load()
	lo := h1 - int64(n)
	if lo < 0 {
		lo = 0
	}
	start := len(dst)
	for k := lo; k < h1; k++ {
		b := (k % r.slots) * recordWords
		w := r.buf[b : b+recordWords : b+recordWords]
		dst = append(dst, RoundRecord{
			Round:       atomic.LoadInt64(&w[0]),
			Arrived:     atomic.LoadInt64(&w[1]),
			Scheduled:   atomic.LoadInt64(&w[2]),
			Dropped:     atomic.LoadInt64(&w[3]),
			Expired:     atomic.LoadInt64(&w[4]),
			Pending:     atomic.LoadInt64(&w[5]),
			ProposeNS:   atomic.LoadInt64(&w[6]),
			ReconcileNS: atomic.LoadInt64(&w[7]),
			ApplyNS:     atomic.LoadInt64(&w[8]),
			VerifyNS:    atomic.LoadInt64(&w[9]),
		})
	}
	// The writer may have advanced during the copy: record k is only
	// intact if its slot has not been re-entered, i.e. k is within the
	// last slots-1 records of the post-copy head (the slot of record h2
	// itself may be mid-write; the spare slot makes slots-1 == rounds).
	h2 := r.head.Load()
	if safeLo := h2 - r.slots + 1; safeLo > lo {
		drop := int(safeLo - lo)
		if drop > len(dst)-start {
			drop = len(dst) - start
		}
		dst = append(dst[:start], dst[start+drop:]...)
	}
	return dst
}

// WriteJSONL encodes the last n records (oldest first) as JSON Lines —
// one RoundRecord object per line — and reports how many were written.
func (r *FlightRecorder) WriteJSONL(w io.Writer, n int) (int, error) {
	recs := r.Last(nil, n)
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return i, err
		}
	}
	return len(recs), nil
}
