package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// rec builds a distinctive record for round r so a torn copy would be
// visible as a field mismatch.
func rec(r int64) RoundRecord {
	return RoundRecord{
		Round:     r,
		Arrived:   r * 2,
		Scheduled: r * 3,
		Dropped:   r * 5,
		Expired:   r * 7,
		Pending:   r * 11,
		ProposeNS: r * 13, ReconcileNS: r * 17, ApplyNS: r * 19, VerifyNS: r * 23,
	}
}

func checkRec(t *testing.T, got RoundRecord) {
	t.Helper()
	if want := rec(got.Round); got != want {
		t.Fatalf("torn or corrupt record: got %+v, want %+v", got, want)
	}
}

// TestRecorderWrapAround: a ring of 8 fed 20 records keeps exactly the
// most recent ones, oldest first, with every field intact.
func TestRecorderWrapAround(t *testing.T) {
	r := NewFlightRecorder(8)
	if r.Cap() != 8 {
		t.Fatalf("cap %d, want 8", r.Cap())
	}
	for i := int64(0); i < 20; i++ {
		r.Record(rec(i))
	}
	if r.Written() != 20 {
		t.Fatalf("written %d, want 20", r.Written())
	}
	got := r.Last(nil, 100)
	if len(got) != 8 {
		t.Fatalf("got %d records, want 8 (the ring capacity)", len(got))
	}
	for i, g := range got {
		if g.Round != int64(12+i) {
			t.Fatalf("record %d has round %d, want %d (oldest first)", i, g.Round, 12+i)
		}
		checkRec(t, g)
	}
	// A bounded request returns the most recent suffix.
	tail := r.Last(nil, 3)
	if len(tail) != 3 || tail[0].Round != 17 || tail[2].Round != 19 {
		t.Fatalf("Last(3) = %+v, want rounds 17..19", tail)
	}
	if out := r.Last(nil, 0); len(out) != 0 {
		t.Fatalf("Last(0) returned %d records", len(out))
	}
}

// TestRecorderPartialRing: fewer records than capacity returns them all.
func TestRecorderPartialRing(t *testing.T) {
	r := NewFlightRecorder(16)
	for i := int64(0); i < 5; i++ {
		r.Record(rec(i))
	}
	got := r.Last(nil, 16)
	if len(got) != 5 {
		t.Fatalf("got %d records, want 5", len(got))
	}
	for i, g := range got {
		if g.Round != int64(i) {
			t.Fatalf("record %d has round %d", i, g.Round)
		}
	}
}

// TestRecorderConcurrentReaders drives one writer against several
// readers under the race detector: every record a reader sees must be
// complete (field pattern intact) and in strictly increasing round
// order.
func TestRecorderConcurrentReaders(t *testing.T) {
	r := NewFlightRecorder(64)
	const total = 200_000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []RoundRecord
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = r.Last(buf[:0], 64)
				for i, g := range buf {
					checkRec(t, g)
					if i > 0 && g.Round <= buf[i-1].Round {
						t.Errorf("rounds not strictly increasing: %d after %d", g.Round, buf[i-1].Round)
						return
					}
				}
			}
		}()
	}
	for i := int64(0); i < total; i++ {
		r.Record(rec(i))
	}
	close(stop)
	wg.Wait()
	if r.Written() != total {
		t.Fatalf("written %d, want %d", r.Written(), total)
	}
}

// TestRecorderRecordZeroAlloc pins the writer-side contract the stream
// runtime's zero-alloc round loop depends on.
func TestRecorderRecordZeroAlloc(t *testing.T) {
	r := NewFlightRecorder(32)
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(rec(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Record performed %v allocs, want 0", allocs)
	}
}

// TestRecorderLastAllocatesOnce: a copy of a full ring sizes its
// destination once, not by regrowing it as the records are appended.
func TestRecorderLastAllocatesOnce(t *testing.T) {
	r := NewFlightRecorder(DefaultRounds)
	for i := range int64(2 * r.Cap()) {
		r.Record(rec(i))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := r.Last(nil, r.Cap()); len(got) != r.Cap() {
			t.Fatalf("Last returned %d records, want %d", len(got), r.Cap())
		}
	})
	want := 1.0
	if raceEnabled {
		want = 2 // instrumented builds do not fuse slices.Grow's append of a make
	}
	if allocs != want {
		t.Fatalf("Last(nil, Cap()) on a full ring performed %v allocs, want %v", allocs, want)
	}
}

// TestRecorderJSONL round-trips the JSONL export.
func TestRecorderJSONL(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := int64(0); i < 4; i++ {
		r.Record(rec(i))
	}
	var buf bytes.Buffer
	n, err := r.WriteJSONL(&buf, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("wrote %d records, want 4", n)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var g RoundRecord
		if err := json.Unmarshal(sc.Bytes(), &g); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if g.Round != int64(lines) {
			t.Fatalf("line %d has round %d", lines, g.Round)
		}
		checkRec(t, g)
		lines++
	}
	if lines != 4 {
		t.Fatalf("scanned %d lines, want 4", lines)
	}
}
