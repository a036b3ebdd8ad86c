package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowsched/internal/chkpt"
)

// TestDispatch drives the front door without exec: what is not a
// subcommand or an artifact is a usage error (status 2) that names the
// valid ones, -h on a subcommand lists that subcommand's flags only, a
// mode refuses the flags of another, and a failure returns through the
// deferred cleanups.
func TestDispatch(t *testing.T) {
	// A checkpoint whose admission limit is 0: a restore adopts it, and the
	// adopted value is checked like a typed one.
	zeroLimit := filepath.Join(t.TempDir(), "zero.ckpt")
	if err := chkpt.Save(zeroLimit, &chkpt.Checkpoint{
		Policy: "RoundRobin", Shards: 1, Admit: "lossless", InCaps: []int{1, 1}, OutCaps: []int{1, 1},
	}); err != nil {
		t.Fatal(err)
	}
	// One whose shard count is 0 (with a valid admission limit): the
	// adopted -shards is checked like a typed one too.
	zeroShards := filepath.Join(t.TempDir(), "zeroshards.ckpt")
	if err := chkpt.Save(zeroShards, &chkpt.Checkpoint{
		Policy: "RoundRobin", MaxPending: 8, Admit: "lossless", InCaps: []int{1, 1}, OutCaps: []int{1, 1},
	}); err != nil {
		t.Fatal(err)
	}
	// A trace whose 301st flow names a port a 16-port switch does not
	// have: the drain runs for its first rounds, then fails.
	dir := t.TempDir()
	var trace strings.Builder
	for r := range 300 {
		fmt.Fprintf(&trace, "%d,%d,%d,1\n", r, r%16, (r+1)%16)
	}
	trace.WriteString("300,99,0,1\n")
	badTrace, prof := filepath.Join(dir, "bad.csv"), filepath.Join(dir, "p.prof")
	if err := os.WriteFile(badTrace, []byte(trace.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args      []string
		status    int
		want, not string // in stderr / not in stderr
		out       string // in stdout
	}{
		{[]string{"nosuchcmd"}, 2, "art, gen, mrt, paper", "", ""},
		{[]string{"paper", "-fig", "nosuch"}, 2, "6, 7, t1, t3, amrt, 4a, ablation, bounds, sweep, all", "", ""},
		{[]string{"paper", "-nosuchflag"}, 2, "-lptrials", "-stream", ""},
		{[]string{"paper", "-T", "4,x"}, 2, `bad integer "x"`, "", ""},
		{[]string{"paper", "-T", "6x,0x10"}, 2, `bad integer "6x"`, "", ""},
		{[]string{"mrt", "-deadlines", "9z"}, 2, `bad integer "9z"`, "", ""},
		{[]string{"-trials", "-1"}, 2, "-trials must be at least 1, got -1", "", ""},
		{[]string{"stream", "-ports", "-1"}, 2, "-ports must be at least 1, got -1", "", ""},
		{[]string{"stream", "-window", "0"}, 2, "-window must be at least 1, got 0", "", ""},
		{[]string{"stream", "-maxpending", "0"}, 2, "-maxpending must be at least 1, got 0", "", ""},
		{[]string{"stream", "-maxpending", "-5"}, 2, "-maxpending must be at least 1, got -5", "", ""},
		{[]string{"stream", "-shards", "0"}, 2, "-shards must be at least 1, got 0", "", ""},
		{[]string{"stream", "-shards", "-3"}, 2, "-shards must be at least 1, got -3", "", ""},
		{[]string{"stream", "-flows", "0"}, 2, "-flows must be at least 1, got 0", "", ""},
		{[]string{"stream", "-flows", "-1"}, 2, "-flows must be at least 1, got -1", "", ""},
		{[]string{"stream", "-checkpoint", "unwritten.ckpt", "-checkpointrounds", "-3"}, 2, "-checkpointrounds must not be negative, got -3", "", ""},
		{[]string{"stream", "-verifyevery", "-3", "-flows", "2000"}, 2, "-verifyevery must not be negative, got -3", "", ""},
		{[]string{"stream", "-ports", "2", "-restore", zeroShards}, 2, "-shards must be at least 1, got 0", "", ""},
		{[]string{"stream", "-ports", "2", "-restore", zeroLimit}, 2, "-maxpending must be at least 1, got 0", "", ""},
		{[]string{"art", "-ports", "0"}, 2, "-ports must be at least 1, got 0", "", ""},
		{[]string{"gen", "-ports", "0"}, 2, "-ports must be at least 1, got 0", "", ""},
		{[]string{"art", "-c", "0"}, 2, "-c must be at least 1, got 0", "core:", ""},
		{[]string{"mrt", "-dmax", "0"}, 2, "-dmax must be at least 1, got 0", "", ""},
		{[]string{"mrt", "-dmax", "-3"}, 2, "-dmax must be at least 1, got -3", "capacity", ""},
		{[]string{"gen", "-dmax", "0"}, 2, "-dmax must be at least 1, got 0", "", ""},
		{[]string{"-dmax", "0"}, 2, "-dmax must be at least 1, got 0", "", ""},
		{[]string{"stream", "-dmax", "-3"}, 2, "-dmax must be at least 1, got -3", "", ""},
		{[]string{"paper", "-fig", "t1", "-trials", "0"}, 2, "-trials must be at least 1, got 0", "", ""},
		{[]string{"paper", "-fig", "t1", "-lptrials", "0"}, 2, "-lptrials must be at least 1, got 0", "", ""},
		{[]string{"gen", "-kind", "nosuch"}, 2, `unknown kind "nosuch"`, "", ""},
		{[]string{"-policy", "nosuch"}, 2, `unknown policy "nosuch"`, "", ""},
		{[]string{"art", "-in", "/nonexistent/instance.json"}, 1, "flowsim art: open", "", ""},
		{[]string{"art", "-h"}, 0, "-schedule", "-stream", ""},
		{[]string{"mrt", "-h"}, 0, "-deadlines", "-kind", ""},
		{[]string{"gen", "-h"}, 0, "-teachers", "-fig", ""},
		{[]string{"-h"}, 0, "-srpt", "-maxpending", ""},
		{[]string{"stream", "-h"}, 0, "-checkpointrounds", "-srpt", ""},
		{[]string{"-checkpoint", "x.ckpt"}, 2, "flag provided but not defined: -checkpoint", "", ""},
		{[]string{"-stream"}, 2, "flag provided but not defined: -stream", "", ""},
		{[]string{"stream", "-in", "x.json"}, 2, "flag provided but not defined: -in", "", ""},
		{[]string{"stream", "-trials", "1"}, 2, "flag provided but not defined: -trials", "", ""},
		{[]string{"stream", "-srpt"}, 2, "flag provided but not defined: -srpt", "", ""},
		{[]string{"stream", "-policy", "nosuch"}, 2, `unknown stream policy "nosuch"`, "", ""},
		{[]string{"stream", "-admit", "bogus"}, 2, `unknown admission mode "bogus"`, "", ""},
		{[]string{"stream", "-checkpointrounds", "5"}, 2, "-checkpointrounds 5 needs -checkpoint", "", ""},
		{[]string{"stream", "-checkpoint", filepath.Join(dir, "c.ckpt")}, 2, "need a single policy", "", ""},
		{[]string{"stream", "-ports", "16", "-trace", badTrace, "-cpuprofile", prof}, 1, "trace line 301", "", ""},
		// Theorem 3 on a small multi-unit instance: the schedule uses 2 of
		// the c_p + 3 its rounding may.
		{args: []string{"mrt", "-dmax", "2", "-ports", "3", "-M", "4", "-T", "3"}, out: "measured overload: 2\n"},
	} {
		var stderr bytes.Buffer
		stdout := captureStdout(t, func() {
			if got := dispatch(c.args, &stderr); got != c.status {
				t.Errorf("flowsim %v: exit status %d, want %d (stderr %q)", c.args, got, c.status, &stderr)
			}
		})
		if !strings.Contains(stderr.String(), c.want) || (c.not != "" && strings.Contains(stderr.String(), c.not)) {
			t.Errorf("flowsim %v: stderr %q, want it to contain %q and not %q", c.args, &stderr, c.want, c.not)
		}
		if !strings.Contains(stdout, c.out) {
			t.Errorf("flowsim %v: stdout %q, want it to contain %q", c.args, stdout, c.out)
		}
	}
	// The failed drain still stopped its CPU profile: a gzipped proto.
	if b, err := os.ReadFile(prof); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("CPU profile of the failed drain: %d bytes (err %v), want a gzip stream", len(b), err)
	}
	for _, f := range []string{"x.ckpt", filepath.Join(dir, "c.ckpt")} {
		if _, err := os.Stat(f); err == nil {
			t.Errorf("a refused command wrote %s", f)
		}
	}
}

// captureStdout runs fn with os.Stdout pointed at a temporary file and
// returns what fn wrote there.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
