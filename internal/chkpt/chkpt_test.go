package chkpt

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

var (
	k2Restored = stream.Summary{
		Round: 300, Rounds: 300, Shards: 2, Admitted: 1914, Completed: 1824, Pending: 90, PeakPending: 96,
		Backpressured: 1621, TotalResponse: 86000, AvgResponse: 86000.0 / 1824, MaxResponse: 187,
		P50: 85.5, P90: 97.5, P99: 187.5,
	}
	k2Drained = stream.Summary{
		Round: 642, Rounds: 642, Shards: 2, Admitted: 4000, Completed: 4000, PeakPending: 96,
		Backpressured: 3707, TotalResponse: 398808, AvgResponse: 398808.0 / 4000, MaxResponse: 227,
		P50: 179.5, P90: 203.5, P99: 219.5,
	}
	k2TailHash = uint64(0xc3762ffcc1100665)
)

func sample() *Checkpoint {
	return &Checkpoint{
		Round:          42,
		Pending:        2,
		SourceConsumed: 13,
		Policy:         "OldestFirst",
		Shards:         2,
		MaxPending:     64,
		Admit:          "lossless",
		InCaps:         []int{1, 1, 1, 1},
		OutCaps:        []int{1, 1, 1, 1},
		Counters: Counters{
			Admitted: 12, Completed: 10, TotalResponse: 55,
			Rounds: 40, MaxResponse: 9, PeakPending: 7, Backpressured: 3,
		},
		Flows: []switchnet.Flow{
			{In: 0, Out: 1, Demand: 1, Release: 40},
			{In: 1, Out: 2, Demand: 1, Release: 41},
			{In: 2, Out: 3, Demand: 1, Release: 42}, // lookahead
		},
	}
}

// TestRoundTrip pins Save/Load fidelity through the file envelope.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	want := sample()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != want.Round || got.Pending != want.Pending || got.SourceConsumed != want.SourceConsumed ||
		got.Policy != want.Policy || got.MaxPending != want.MaxPending || got.Admit != want.Admit ||
		got.Counters != want.Counters || len(got.Flows) != len(want.Flows) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.Flows {
		if got.Flows[i] != want.Flows[i] {
			t.Fatalf("flow %d diverged: got %+v want %+v", i, got.Flows[i], want.Flows[i])
		}
	}
	// Saving again over an existing file replaces it atomically and leaves
	// no temporary litter.
	want.Round = 43
	want.Pending = 3
	want.Counters.Admitted = 13
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 43 {
		t.Fatalf("second save not visible: %+v", got)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temporary files left behind: %v", ents)
	}
}

// parentImage is a version-2 checkpoint file written by an earlier build,
// from before the counters struct moved into internal/stream and back,
// with every counter distinct and non-zero.
const parentImage = "RkxPV0NLUFQCAAAA9QEAAAAAAAB7InJvdW5kIjo0MiwicGVuZGluZyI6Miwic291cmNlX2NvbnN1bWVkIjozMywicG9saWN5IjoiUm91bmRSb2JpbiIsInNoYXJkcyI6MiwibWF4X3BlbmRpbmciOjY0LCJhZG1pdCI6ImRlYWRsaW5lIiwiZGVhZGxpbmUiOjksImluX2NhcHMiOlsxLDEsMSwxXSwib3V0X2NhcHMiOlsxLDEsMSwxXSwiY291bnRlcnMiOnsiYWRtaXR0ZWQiOjMyLCJjb21wbGV0ZWQiOjIwLCJkcm9wcGVkIjo0LCJleHBpcmVkIjo2LCJiYWNrcHJlc3N1cmVkIjozLCJ0b3RhbF9yZXNwb25zZSI6NTUsInNsb3dfcmVzcG9uc2VzIjo1LCJyb3VuZHMiOjQwLCJtYXhfcmVzcG9uc2UiOjgsInBlYWtfcGVuZGluZyI6N30sImZsb3dzIjpbeyJpbiI6MCwib3V0IjoxLCJkZW1hbmQiOjEsInJlbGVhc2UiOjQwfSx7ImluIjoxLCJvdXQiOjIsImRlbWFuZCI6MSwicmVsZWFzZSI6NDF9LHsiaW4iOjIsIm91dCI6MywiZGVtYW5kIjoxLCJyZWxlYXNlIjo0Mn1dLCJwb2xpY3lfc2NyYXRjaCI6W1sxLDJdLFszLDBdXX0wvDE+"

// TestParentImageDecodes pins the on-disk format across the counters
// merge: a file the previous build wrote decodes to the same counters,
// resumes a runtime from them, and re-encodes byte for byte (same JSON
// keys, same key order, same Version).
func TestParentImageDecodes(t *testing.T) {
	data, err := base64.StdEncoding.DecodeString(parentImage)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want := Counters{
		Admitted: 32, Completed: 20, Dropped: 4, Expired: 6, Backpressured: 3,
		TotalResponse: 55, SlowResponses: 5, Rounds: 40, MaxResponse: 8, PeakPending: 7,
	}
	if ck.Counters != want {
		t.Fatalf("counters = %+v, want %+v", ck.Counters, want)
	}
	if got := countersOf(ck.State().Summary); got != want {
		t.Fatalf("State().Summary counters = %+v, want %+v", got, want)
	}
	again, err := Encode(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded image differs from the parent-written one:\n got %q\nwant %q", again, data)
	}
}

// marshalImage builds c's image the way Encode did before it streamed
// the payload: json.Marshal, then the envelope around a copy of it.
func marshalImage(t *testing.T, c *Checkpoint) []byte {
	t.Helper()
	payload, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(magic), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(buf[len(magic):], Version)
	binary.LittleEndian.PutUint64(buf[len(magic)+4:], uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// bigCheckpoint is a valid checkpoint holding n pending flows.
func bigCheckpoint(n int) *Checkpoint {
	c := sample()
	c.Flows = c.Flows[:0]
	for i := range n {
		c.Flows = append(c.Flows, switchnet.Flow{In: i % 4, Out: (i / 4) % 4, Demand: 1, Release: 40 + i/64})
	}
	c.Pending = n
	c.Counters.Admitted = c.Counters.Completed + int64(n)
	return c
}

// TestEncodeMatchesMarshal pins Encode's images to the json.Marshal
// path's bytes: on the sample, on the K=2 image an earlier build wrote
// (window sketches and rotation pointers), on a large pending set, and
// on a policy name json escapes for HTML.
func TestEncodeMatchesMarshal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "k2_roundrobin.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	escaped := sample()
	escaped.Policy = "<Oldest&First>"
	for name, c := range map[string]*Checkpoint{
		"sample": sample(), "k2": k2, "big": bigCheckpoint(5000), "escaped": escaped,
	} {
		got, err := Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalImage(t, c); !bytes.Equal(got, want) {
			t.Fatalf("%s: Encode's image differs from the json.Marshal path's:\n got %q\nwant %q", name, got, want)
		}
	}
	again, err := Encode(k2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-encoded K=2 image differs from the file an earlier build wrote")
	}
}

// TestEncodeCopiesOnce bounds the bytes one Encode allocates: the image
// itself plus a sliver, where the json.Marshal path allocated the payload
// and then the image around a copy of it, twice the bytes. The least of
// several single calls is taken, so a GC that empties json's pooled
// encoder state between two of them cannot fail the bound.
func TestEncodeCopiesOnce(t *testing.T) {
	c := bigCheckpoint(20000)
	img, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(1) << 62
	var before, after runtime.MemStats
	for range 8 {
		runtime.ReadMemStats(&before)
		if _, err := Encode(c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if bound := uint64(len(img)) + uint64(len(img))/8; least > bound {
		t.Fatalf("Encode of a %d-byte image allocated %d bytes, want <= %d", len(img), least, bound)
	}
}

// k2Source is the arrival stream behind testdata/k2_roundrobin.ckpt:
// Poisson(9) flows of demand 1..2 a round on a capacity-2 6x6 switch, an
// overload that keeps the admission limit binding.
func k2Source() *workload.ArrivalSource {
	return workload.NewArrivalSource(workload.ArrivalConfig{Ports: 6, Cap: 2, M: 9, MaxFlows: 4000, MaxDemand: 2},
		rand.New(rand.NewSource(11)))
}

// k2Config is the configuration the image was written under.
func k2Config() stream.Config {
	return stream.Config{
		Switch: switchnet.NewSwitch(6, 6, 2), Policy: stream.ByName("RoundRobin"), Shards: 2,
		MaxPending: 96, WindowRounds: 64,
	}
}

// TestParentK2ImageRestoresExactly restores a checkpoint file an earlier
// build wrote from a two-shard RoundRobin drain: the pending set in global
// admission order plus one lookahead flow, both shards' rotation pointers,
// and one window sketch per shard. (A capture holds a lookahead only with
// nothing pending, so the image is a periodic capture at round 300 with the
// stream's next flow appended as its lookahead, which Config.Resume
// accepts.) The restored runtime must report the
// summary that build reported right after New — counters and window
// quantiles alike — and capture the same flows and the same rotation
// pointers back, in the same order.
// The drained tail (k2TailHash, k2Drained) pins the schedule the restored
// runtime continues with, the shards taking turns.
func TestParentK2ImageRestoresExactly(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "k2_roundrobin.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Shards != 2 || len(ck.Scratch) != 2 || len(ck.Windows) != 2 || len(ck.Flows) != ck.Pending+1 || ck.Pending == 0 {
		t.Fatalf("image lost its shape: %d shards, %d scratch, %d windows, %d flows for %d pending",
			ck.Shards, len(ck.Scratch), len(ck.Windows), len(ck.Flows), ck.Pending)
	}
	cfg := k2Config()
	cfg.Resume = ck.State()
	h := fnv.New64a()
	var buf [16]byte
	cfg.OnSchedule = func(seq int64, _ switchnet.Flow, round int) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(seq))
		binary.LittleEndian.PutUint64(buf[8:], uint64(round))
		h.Write(buf[:])
	}
	src := k2Source()
	workload.Skip(src, ck.SourceConsumed)
	rt, err := stream.New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Snapshot(); got != k2Restored {
		t.Fatalf("restored summary\n got %+v\nwant %+v", got, k2Restored)
	}
	st, err := rt.CheckpointState(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != ck.Pending || !slices.Equal(st.Flows, ck.Flows) {
		t.Fatalf("re-capture holds %d flows (%d pending), the image %d (%d pending), or a different order",
			len(st.Flows), st.Pending, len(ck.Flows), ck.Pending)
	}
	if !slices.EqualFunc(st.Scratch, ck.Scratch, slices.Equal[[]int64]) {
		t.Fatalf("re-capture's policy scratch %v, the image's %v", st.Scratch, ck.Scratch)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Sum64(); got != k2TailHash || *sum != k2Drained {
		t.Fatalf("drained tail: hash %#016x, summary %+v\nwant hash %#016x, summary %+v", got, *sum, k2TailHash, k2Drained)
	}
}

// TestCorruptionMatrix is the satellite corruption suite: truncation,
// a flipped CRC byte, a wrong version, and an empty file each produce
// the matching typed error.
func TestCorruptionMatrix(t *testing.T) {
	good, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
	load := func(t *testing.T, data []byte) error {
		path := filepath.Join(t.TempDir(), "ck")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		return err
	}
	t.Run("empty file", func(t *testing.T) {
		if err := load(t, nil); !errors.Is(err, ErrEmpty) {
			t.Fatalf("got %v, want ErrEmpty", err)
		}
	})
	t.Run("truncated below envelope", func(t *testing.T) {
		if err := load(t, good[:headerLen-3]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if err := load(t, good[:len(good)-8]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("flipped CRC byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0xFF
		if err := load(t, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[headerLen+5] ^= 0x20
		if err := load(t, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(magic)] = 99
		if err := load(t, bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if err := load(t, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0, 1, 2)
		if err := load(t, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("insane payload length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		for i := 0; i < 8; i++ {
			bad[len(magic)+4+i] = 0xFF
		}
		if err := load(t, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
			t.Fatal("loaded a missing file")
		}
	})
}

// TestValidateRejectsInconsistentPayloads covers structurally broken but
// envelope-clean checkpoints: these must also refuse to restore.
func TestValidateRejectsInconsistentPayloads(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Checkpoint)
	}{
		{"negative round", func(c *Checkpoint) { c.Round = -1 }},
		{"pending beyond flows", func(c *Checkpoint) { c.Pending = len(c.Flows) + 1 }},
		{"two lookaheads", func(c *Checkpoint) { c.Pending = len(c.Flows) - 2 }},
		{"unknown admit mode", func(c *Checkpoint) { c.Admit = "yolo" }},
		{"unbalanced counters", func(c *Checkpoint) { c.Counters.Completed++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := sample()
			tc.mut(c)
			data, err := Encode(c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(data); err == nil {
				t.Fatalf("decoded an inconsistent checkpoint: %+v", c)
			}
		})
	}
}

// TestCompatible pins the switch-shape gate.
func TestCompatible(t *testing.T) {
	c := sample()
	if err := c.Compatible(switchnet.UnitSwitch(4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Compatible(switchnet.UnitSwitch(5)); err == nil {
		t.Fatal("accepted a different port count")
	}
	sw := switchnet.UnitSwitch(4)
	sw.OutCaps[2] = 3
	if err := c.Compatible(sw); err == nil {
		t.Fatal("accepted a different capacity")
	}
}

// TestAdoptFlags pins what a -restore takes from the checkpoint: every
// scheduling flag the command line left alone — the shard count included,
// without which a K=2 image resumed at K=1 drops its policy scratch and
// schedules differently — and none it set.
func TestAdoptFlags(t *testing.T) {
	ck := sample()
	ck.Admit, ck.Deadline = "deadline", 9
	parse := func(args ...string) (policy, admit *string, shards, maxPending, deadline *int, fs *flag.FlagSet) {
		fs = flag.NewFlagSet("test", flag.ContinueOnError)
		policy = fs.String("policy", "RoundRobin", "")
		admit = fs.String("admit", "lossless", "")
		shards = fs.Int("shards", 1, "")
		maxPending = fs.Int("maxpending", 1<<17, "")
		deadline = fs.Int("deadline", 0, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return
	}
	policy, admit, shards, maxPending, deadline, fs := parse()
	if err := ck.AdoptFlags(fs); err != nil {
		t.Fatal(err)
	}
	if *policy != "OldestFirst" || *shards != 2 || *maxPending != 64 || *admit != "deadline" || *deadline != 9 {
		t.Fatalf("plain restore adopted policy %q shards %d maxpending %d admit %q deadline %d",
			*policy, *shards, *maxPending, *admit, *deadline)
	}
	policy, admit, shards, maxPending, deadline, fs = parse("-shards", "1", "-policy", "RoundRobin")
	if err := ck.AdoptFlags(fs); err != nil {
		t.Fatal(err)
	}
	if *policy != "RoundRobin" || *shards != 1 {
		t.Fatalf("explicit flags overridden: policy %q shards %d", *policy, *shards)
	}
	if *maxPending != 64 || *admit != "deadline" || *deadline != 9 {
		t.Fatalf("unset flags not adopted next to explicit ones: maxpending %d admit %q deadline %d", *maxPending, *admit, *deadline)
	}
}
