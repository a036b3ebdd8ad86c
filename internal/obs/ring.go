package obs

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// MaxRecords bounds a Ring's size. It is far above any history a caller
// reads (a drain's flight recorder holds about 10^4 rounds, the pilot's
// window 2,048 completions), and small enough that the ring's word count,
// (records+1) times a record's width, cannot overflow an int. A size
// taken from a flag is held to it before anything is allocated.
const MaxRecords = 1 << 24

// Ring is the lapped single-writer ring the flight recorder and the
// pilot's completion window both run on: the last Cap records, each a
// fixed number of typed atomic words. The writer stores a slot's words
// and then advances head. A reader copies the records below head, re-reads
// head, and drops any record whose slot the writer may have re-entered
// during the copy, so a torn record is never returned and neither side
// ever blocks the other.
//
// The zero value is not usable; construct with NewRing.
type Ring struct {
	// head is the number of records ever published. Record k
	// (zero-based) lives in slot k % slots until lapped.
	head atomic.Int64
	// slots is Cap+1: the spare slot absorbs the record the writer may
	// be mid-storing, so the last Cap records are always readable whole
	// (see the drop rule in ReadLast).
	slots int64
	width int64
	words []atomic.Int64 // slots * width
}

// NewRing returns a ring holding the last `records` records of `width`
// words each; records must lie in [1, MaxRecords].
func NewRing(records, width int) (*Ring, error) {
	if records < 1 || records > MaxRecords {
		return nil, fmt.Errorf("ring of %d records is outside [1, obs.MaxRecords = %d]", records, MaxRecords)
	}
	return &Ring{
		slots: int64(records) + 1,
		width: int64(width),
		words: make([]atomic.Int64, (records+1)*width),
	}, nil
}

// Cap returns the ring capacity in records: how much history ReadLast
// can guarantee.
func (r *Ring) Cap() int { return int(r.slots - 1) }

// Written returns the number of records ever published (not capped at
// the ring size).
func (r *Ring) Written() int64 { return r.head.Load() }

// Slot returns the words of the record the writer stores next; readers
// see none of it until Publish. Single writer only.
//
//flowsched:hotpath
func (r *Ring) Slot() []atomic.Int64 {
	b := r.head.Load() % r.slots * r.width
	return r.words[b : b+r.width : b+r.width]
}

// Publish makes the record stored through Slot readable.
//
//flowsched:hotpath
func (r *Ring) Publish() { r.head.Store(r.head.Load() + 1) }

// ReadLast appends up to n of r's most recent records to dst, oldest
// first, each decoded from its words, and returns the extended slice.
// Records the writer may have lapped during the copy are dropped, so
// every returned record is whole and they come in publish order. Safe
// to call concurrently with the writer and with other readers (dst must
// not be shared between concurrent readers).
func ReadLast[T any](r *Ring, dst []T, n int, decode func(w []atomic.Int64) T) []T {
	n = min(n, r.Cap())
	if n <= 0 {
		return dst
	}
	h1 := r.head.Load()
	lo := max(h1-int64(n), 0)
	start := len(dst)
	dst = slices.Grow(dst, int(h1-lo))
	for k := lo; k < h1; k++ {
		b := k % r.slots * r.width
		dst = append(dst, decode(r.words[b:b+r.width:b+r.width]))
	}
	// Record k is whole only if its slot has not been re-entered, i.e. k
	// is within the last slots-1 records of the post-copy head (the slot
	// of record h2 itself may be mid-write).
	if safeLo := r.head.Load() - r.slots + 1; safeLo > lo {
		drop := min(int(safeLo-lo), len(dst)-start)
		dst = append(dst[:start], dst[start+drop:]...)
	}
	return dst
}
