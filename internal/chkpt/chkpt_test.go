package chkpt

import (
	"bytes"
	"encoding/base64"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"flowsched/internal/switchnet"
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
