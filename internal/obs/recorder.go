// Package obs holds the runtime's flight recorder: a fixed-size,
// single-writer ring of per-round records the scheduler's coordinator
// writes from inside the round loop — zero steady-state allocations, no
// locks — and any number of readers drain concurrently for traces,
// scrape-time histograms, and post-mortems.
//
// The recorder, like the pilot's completion window, runs on Ring: the
// writer stores a record's typed atomic words and then advances a head
// counter; a reader copies the records below the head, re-reads it, and
// drops any record the writer may have lapped during the copy. That is
// not stats.EpochWindow's protocol, which is a seqlock: its writer
// brackets each batch in Begin/End epochs, and a reader retries while an
// epoch is open or has moved. The ring has no epochs and no retries; a
// torn record is detected by the head having lapped it, and dropped.
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
// and VerifyNS the verify oracle's check of the round's picks, every round
// with verification on. The check runs on the coordinator before the picks
// retire, so a record carries its own round's check.
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

// recordWords is a round record's width in ring words; Record and
// decodeRound are the single source of truth for the layout.
const recordWords = 10

// FlightRecorder is the fixed-size round ring. One goroutine calls
// Record; any number call Last/WriteJSONL/Written concurrently.
//
// The zero value is not usable; construct with NewFlightRecorder.
type FlightRecorder struct {
	ring *Ring
}

// NewFlightRecorder returns a ring holding the last `rounds` records
// (<= 0 selects DefaultRounds). It panics if rounds exceeds MaxRecords;
// a caller taking the size from input checks it first.
func NewFlightRecorder(rounds int) *FlightRecorder {
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	ring, err := NewRing(rounds, recordWords)
	if err != nil {
		panic("obs: NewFlightRecorder: " + err.Error())
	}
	return &FlightRecorder{ring: ring}
}

// Cap returns the ring capacity in rounds: how much history Last can
// guarantee.
func (r *FlightRecorder) Cap() int { return r.ring.Cap() }

// Written returns the total number of records ever recorded (not capped
// at the ring size).
func (r *FlightRecorder) Written() int64 { return r.ring.Written() }

// Record appends one round record. Single writer only; it performs no
// locking and no heap allocation, so it is safe on an allocation-free
// hot path. The record becomes visible whole, after all its words are
// stored.
//
//flowsched:hotpath
func (r *FlightRecorder) Record(rec RoundRecord) {
	w := (*[recordWords]atomic.Int64)(r.ring.Slot())
	w[0].Store(rec.Round)
	w[1].Store(rec.Arrived)
	w[2].Store(rec.Scheduled)
	w[3].Store(rec.Dropped)
	w[4].Store(rec.Expired)
	w[5].Store(rec.Pending)
	w[6].Store(rec.ProposeNS)
	w[7].Store(rec.ReconcileNS)
	w[8].Store(rec.ApplyNS)
	w[9].Store(rec.VerifyNS)
	r.ring.Publish()
}

// decodeRound loads one record's words in Record's layout.
func decodeRound(words []atomic.Int64) RoundRecord {
	w := (*[recordWords]atomic.Int64)(words)
	return RoundRecord{
		Round:       w[0].Load(),
		Arrived:     w[1].Load(),
		Scheduled:   w[2].Load(),
		Dropped:     w[3].Load(),
		Expired:     w[4].Load(),
		Pending:     w[5].Load(),
		ProposeNS:   w[6].Load(),
		ReconcileNS: w[7].Load(),
		ApplyNS:     w[8].Load(),
		VerifyNS:    w[9].Load(),
	}
}

// Last appends up to n of the most recent records to dst, oldest first,
// and returns the extended slice. Records the writer may have lapped
// during the copy are discarded, so every returned record is complete
// and the returned Round sequence is strictly increasing. Safe to call
// concurrently with Record and with other readers (dst must not be
// shared between concurrent readers).
func (r *FlightRecorder) Last(dst []RoundRecord, n int) []RoundRecord {
	return ReadLast(r.ring, dst, n, decodeRound)
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
