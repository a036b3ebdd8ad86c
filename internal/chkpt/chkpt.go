// Package chkpt serializes stream runtime checkpoints to durable files
// and loads them back for restore.
//
// A checkpoint file is a small binary envelope around a JSON payload:
//
//	magic "FLOWCKPT" (8 bytes)
//	version         (uint32, little-endian)
//	payload length  (uint64, little-endian)
//	payload         (JSON-encoded Checkpoint)
//	CRC-32C         (uint32, little-endian, over everything above)
//
// Files are written atomically — payload to a temporary file in the
// destination directory, fsync, rename — so a crash mid-write leaves
// either the previous checkpoint or none, never a torn one. Load
// verifies the envelope end to end and refuses damaged files with typed
// errors (ErrEmpty, ErrTruncated, ErrVersion, ErrCorrupt) instead of
// restoring garbage: a checkpoint that cannot be trusted byte for byte
// must fail loudly, because a silently wrong restore corrupts response
// accounting forever after.
//
// The payload carries everything a restart needs: the pending set with
// original releases (plus the runtime's un-admitted lookahead flow, if
// one existed), the round, the cumulative counters, the policy and
// admission configuration, the switch shape for compatibility checking,
// and — since version 2 — the policy's per-shard scratch state (rotation
// pointers, so RoundRobin and WeightedISLIP restores are schedule-exact,
// not just accounting-exact) and the sliding-window quantile sketch (so
// /metrics response quantiles are continuous across a restore instead of
// restarting empty). Version-1 files still load: the
// new sections simply read as absent, restoring with fresh pointers and
// empty windows exactly as version 1 always did.
//
// A restart is Load, then Checkpoint.State as stream.Config.Resume: the
// pending set, lookahead and counters all travel in that one value, and
// the restored runtime is whole when stream.New returns. The runtime's
// source carries only what comes after — a replayable source skips
// SourceConsumed flows (workload.Skip), a live feed starts empty.
package chkpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"flowsched/internal/stats"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// Typed load failures: callers distinguish a missing/empty file from a
// damaged one (errors.Is).
var (
	// ErrEmpty reports a zero-length checkpoint file.
	ErrEmpty = errors.New("chkpt: empty checkpoint file")
	// ErrTruncated reports a file shorter than its envelope claims.
	ErrTruncated = errors.New("chkpt: truncated checkpoint file")
	// ErrVersion reports an envelope version this build does not read.
	ErrVersion = errors.New("chkpt: unsupported checkpoint version")
	// ErrCorrupt reports a bad magic or a CRC mismatch.
	ErrCorrupt = errors.New("chkpt: corrupt checkpoint file")
)

const (
	magic = "FLOWCKPT"
	// Version is the envelope version this build writes. Version 2 added
	// the policy-scratch and window-sketch sections; version-1 files are
	// still read (see minVersion).
	Version = 2
	// minVersion is the oldest envelope version this build reads.
	minVersion = 1
	// headerLen is magic + version + payload length.
	headerLen = len(magic) + 4 + 8
	// trailerLen is the CRC.
	trailerLen = 4
	// maxPayload bounds how much Load will allocate for a claimed
	// payload length (a corrupt length field must not OOM the restore
	// path); 1 GiB is orders of magnitude above any real pending set.
	maxPayload = 1 << 30
)

// castagnoli is the CRC-32C table (matches common storage-stack CRCs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Counters are the cumulative runtime counters at the checkpoint; see the
// matching stream.Summary fields for semantics. They balance:
// Admitted == Completed + Pending + Dropped + Expired. The JSON tags are
// the file's keys.
type Counters struct {
	Admitted      int64 `json:"admitted"`
	Completed     int64 `json:"completed"`
	Dropped       int64 `json:"dropped"`
	Expired       int64 `json:"expired"`
	Backpressured int64 `json:"backpressured"`
	TotalResponse int64 `json:"total_response"`
	SlowResponses int64 `json:"slow_responses"`
	Rounds        int64 `json:"rounds"`
	MaxResponse   int   `json:"max_response"`
	PeakPending   int   `json:"peak_pending"`
}

// countersOf extracts the cumulative counters a checkpoint records.
func countersOf(s stream.Summary) Counters {
	return Counters{
		Admitted:      s.Admitted,
		Completed:     s.Completed,
		Dropped:       s.Dropped,
		Expired:       s.Expired,
		Backpressured: s.Backpressured,
		TotalResponse: s.TotalResponse,
		SlowResponses: s.SlowResponses,
		Rounds:        s.Rounds,
		MaxResponse:   s.MaxResponse,
		PeakPending:   s.PeakPending,
	}
}

// Checkpoint is the durable image of a quiescent runtime.
type Checkpoint struct {
	// Round is the round the snapshot is consistent at; a restored
	// runtime resumes here.
	Round int `json:"round"`
	// Pending is how many leading Flows entries are resident pending
	// flows; any extra trailing entry is the coordinator's un-admitted
	// lookahead (consumed from the source but not yet counted admitted).
	Pending int `json:"pending"`
	// SourceConsumed is how many flows the runtime had consumed from its
	// source — what a replayed deterministic source must skip on resume.
	SourceConsumed int64 `json:"source_consumed"`
	// Policy, Shards, MaxPending, Admit, Deadline record the scheduling
	// configuration at capture, so a restore can re-create it (or
	// knowingly deviate).
	Policy     string `json:"policy"`
	Shards     int    `json:"shards"`
	MaxPending int    `json:"max_pending"`
	Admit      string `json:"admit"`
	Deadline   int    `json:"deadline,omitempty"`
	// InCaps/OutCaps pin the switch shape; Compatible rejects a restore
	// onto a different switch.
	InCaps  []int `json:"in_caps"`
	OutCaps []int `json:"out_caps"`
	// Counters are the cumulative baselines.
	Counters Counters `json:"counters"`
	// Flows is the pending set in admission order (original releases and
	// remaining demands), plus at most one trailing lookahead flow.
	Flows []switchnet.Flow `json:"flows,omitempty"`
	// Scratch is the policy's per-shard scratch state (one slice per
	// shard in shard order; see stream.CheckpointState.Scratch), absent
	// for memoryless policies and in version-1 files. A restore replays
	// it only when policy and shard count match.
	Scratch [][]int64 `json:"policy_scratch,omitempty"`
	// Windows holds the sliding-window quantile sketch: one entry, or one
	// per shard in images written while each shard kept its own window (a
	// restore merges all of them). Absent in version-1 files, which
	// restore with an empty window.
	Windows []stats.WindowSnapshot `json:"windows,omitempty"`
}

// FromState converts a runtime capture into a durable Checkpoint. cfg
// must be the configuration the capturing runtime was built with (its
// Switch, Policy, and admission settings are recorded for restore). The
// Checkpoint shares st's Flows, Scratch and Windows slices: a capture
// owns what it returns, so there is nothing to copy.
func FromState(st *stream.CheckpointState, cfg stream.Config) *Checkpoint {
	return &Checkpoint{
		Round:          st.Round,
		Pending:        st.Pending,
		SourceConsumed: st.SourceFlows(),
		Policy:         cfg.Policy.Name(),
		Shards:         st.Summary.Shards,
		MaxPending:     cfg.MaxPending,
		Admit:          cfg.Admit.String(),
		Deadline:       cfg.Deadline,
		InCaps:         append([]int(nil), cfg.Switch.InCaps...),
		OutCaps:        append([]int(nil), cfg.Switch.OutCaps...),
		Counters:       countersOf(st.Summary),
		Flows:          st.Flows,
		Scratch:        st.Scratch,
		Windows:        st.Windows,
	}
}

// State converts the checkpoint back into the runtime capture it was
// written from, the stream.Config.Resume a restored runtime takes.
func (c *Checkpoint) State() *stream.CheckpointState {
	cc := c.Counters
	return &stream.CheckpointState{
		Round:   c.Round,
		Pending: c.Pending,
		Flows:   c.Flows,
		Summary: stream.Summary{
			Round:         c.Round,
			Rounds:        cc.Rounds,
			Shards:        c.Shards,
			Admitted:      cc.Admitted,
			Completed:     cc.Completed,
			Pending:       c.Pending,
			PeakPending:   cc.PeakPending,
			Backpressured: cc.Backpressured,
			Dropped:       cc.Dropped,
			Expired:       cc.Expired,
			TotalResponse: cc.TotalResponse,
			MaxResponse:   cc.MaxResponse,
			SlowResponses: cc.SlowResponses,
		},
		Policy:  c.Policy,
		Scratch: c.Scratch,
		Windows: c.Windows,
	}
}

// AdoptFlags makes the checkpoint's scheduling configuration the default
// of a restoring command: each of -policy, -shards, -maxpending, -admit
// and -deadline that the parsed command line did not give is set to the
// checkpoint's value, so a plain -restore continues the run it was taken
// from and an explicit flag deliberately deviates from it.
func (c *Checkpoint) AdoptFlags(fs *flag.FlagSet) error {
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	for _, kv := range [][2]string{
		{"policy", c.Policy},
		{"shards", strconv.Itoa(c.Shards)},
		{"maxpending", strconv.Itoa(c.MaxPending)},
		{"admit", c.Admit},
		{"deadline", strconv.Itoa(c.Deadline)},
	} {
		if explicit[kv[0]] {
			continue
		}
		if err := fs.Set(kv[0], kv[1]); err != nil {
			return fmt.Errorf("chkpt: adopt -%s %s: %w", kv[0], kv[1], err)
		}
	}
	return nil
}

// Compatible reports whether the checkpoint can be restored onto sw: the
// port structure must match exactly, or the pending flows and their
// demands may not be admissible.
func (c *Checkpoint) Compatible(sw switchnet.Switch) error {
	if len(c.InCaps) != len(sw.InCaps) || len(c.OutCaps) != len(sw.OutCaps) {
		return fmt.Errorf("chkpt: checkpoint switch is %dx%d, runtime switch is %dx%d",
			len(c.InCaps), len(c.OutCaps), len(sw.InCaps), len(sw.OutCaps))
	}
	for i, cap := range c.InCaps {
		if sw.InCaps[i] != cap {
			return fmt.Errorf("chkpt: input port %d capacity differs: checkpoint %d, runtime %d", i, cap, sw.InCaps[i])
		}
	}
	for j, cap := range c.OutCaps {
		if sw.OutCaps[j] != cap {
			return fmt.Errorf("chkpt: output port %d capacity differs: checkpoint %d, runtime %d", j, cap, sw.OutCaps[j])
		}
	}
	return nil
}

// Validate performs the structural sanity checks a loaded checkpoint
// must pass before anything is restored from it.
func (c *Checkpoint) Validate() error {
	if c.Round < 0 {
		return fmt.Errorf("chkpt: negative round %d", c.Round)
	}
	if c.Pending < 0 || c.Pending > len(c.Flows) {
		return fmt.Errorf("chkpt: pending count %d outside [0, %d]", c.Pending, len(c.Flows))
	}
	if len(c.Flows)-c.Pending > 1 {
		return fmt.Errorf("chkpt: %d trailing non-pending flows (at most one lookahead allowed)", len(c.Flows)-c.Pending)
	}
	if _, err := stream.ParseAdmitMode(c.Admit); err != nil {
		return err
	}
	cc := c.Counters
	if cc.Admitted != cc.Completed+int64(c.Pending)+cc.Dropped+cc.Expired {
		return fmt.Errorf("chkpt: counters do not balance: admitted %d != completed %d + pending %d + dropped %d + expired %d",
			cc.Admitted, cc.Completed, c.Pending, cc.Dropped, cc.Expired)
	}
	if len(c.Scratch) > 0 && len(c.Scratch) != c.Shards {
		return fmt.Errorf("chkpt: policy scratch has %d shard entries, checkpoint has %d shards", len(c.Scratch), c.Shards)
	}
	return nil
}

// Encode serializes the checkpoint into its file image. The payload is
// encoded once, by a pooled json.Encoder, straight into the image behind
// its header; the encoder's trailing newline is dropped, and the length
// and CRC are filled in around it. The bytes are those of json.Marshal.
func Encode(c *Checkpoint) ([]byte, error) {
	e := encoders.Get().(*imageEncoder)
	defer encoders.Put(e)
	e.img = nil
	if err := e.enc.Encode(c); err != nil {
		return nil, fmt.Errorf("chkpt: encode: %w", err)
	}
	buf := e.img[:len(e.img)-1] // the newline Encode appends
	e.img = nil
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[len(magic):], Version)
	binary.LittleEndian.PutUint64(buf[len(magic)+4:], uint64(len(buf)-headerLen))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// imageEncoder is a json.Encoder writing into the checkpoint image it is
// building: its one Write, the whole encoded payload, lands behind room
// for the header in an array sized for the trailer too, so the payload is
// copied once.
type imageEncoder struct {
	img []byte
	enc *json.Encoder
}

func (e *imageEncoder) Write(p []byte) (int, error) {
	if e.img == nil {
		e.img = make([]byte, headerLen, headerLen+len(p)+trailerLen)
	}
	e.img = append(e.img, p...)
	return len(p), nil
}

var encoders = sync.Pool{New: func() any {
	e := &imageEncoder{}
	e.enc = json.NewEncoder(e)
	return e
}}

// Decode parses and verifies a checkpoint file image, failing with one
// of the typed errors (ErrEmpty, ErrTruncated, ErrVersion, ErrCorrupt)
// when the envelope cannot be trusted.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) == 0 {
		return nil, ErrEmpty
	}
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte envelope", ErrTruncated, len(data), headerLen+trailerLen)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v < minVersion || v > Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d through %d", ErrVersion, v, minVersion, Version)
	}
	plen := binary.LittleEndian.Uint64(data[len(magic)+4:])
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: claimed payload length %d exceeds the %d limit", ErrCorrupt, plen, maxPayload)
	}
	want := headerLen + int(plen) + trailerLen
	if len(data) < want {
		return nil, fmt.Errorf("%w: %d bytes, envelope claims %d", ErrTruncated, len(data), want)
	}
	if len(data) > want {
		return nil, fmt.Errorf("%w: %d trailing bytes after the envelope", ErrCorrupt, len(data)-want)
	}
	body := data[:headerLen+int(plen)]
	got := binary.LittleEndian.Uint32(data[headerLen+int(plen):])
	if sum := crc32.Checksum(body, castagnoli); sum != got {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, got, sum)
	}
	var c Checkpoint
	if err := json.Unmarshal(body[headerLen:], &c); err != nil {
		return nil, fmt.Errorf("%w: payload does not parse: %v", ErrCorrupt, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Save writes the checkpoint to path atomically: the image goes to a
// temporary file in the same directory, is fsynced, and replaces path by
// rename, so a crash leaves either the old checkpoint or the new one —
// never a torn file.
func Save(path string, c *Checkpoint) error {
	data, err := Encode(c)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("chkpt: save: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("chkpt: save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("chkpt: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("chkpt: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("chkpt: save: %w", err)
	}
	// Durability of the rename itself: fsync the directory, best-effort
	// (some filesystems refuse directory fsync; the data file is synced
	// regardless).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Load reads and verifies the checkpoint at path.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chkpt: load: %w", err)
	}
	c, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("chkpt: load %s: %w", path, err)
	}
	return c, nil
}
