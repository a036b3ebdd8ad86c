package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"flowsched/internal/chkpt"
)

// TestDispatch drives the front door without exec: what is not a
// subcommand or an artifact is a usage error (status 2) that names the
// valid ones, and -h on a subcommand lists that subcommand's flags only.
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
	for _, c := range []struct {
		args      []string
		status    int
		want, not string // in stderr / not in stderr
	}{
		{[]string{"nosuchcmd"}, 2, "art, gen, mrt, paper", ""},
		{[]string{"paper", "-fig", "nosuch"}, 2, "6, 7, t1, t3, amrt, 4a, ablation, bounds, sweep, all", ""},
		{[]string{"paper", "-nosuchflag"}, 2, "-lptrials", "-stream"},
		{[]string{"paper", "-T", "4,x"}, 2, `bad integer "x"`, ""},
		{[]string{"paper", "-T", "6x,0x10"}, 2, `bad integer "6x"`, ""},
		{[]string{"mrt", "-deadlines", "9z"}, 2, `bad integer "9z"`, ""},
		{[]string{"-trials", "-1"}, 2, "-trials must be at least 1, got -1", ""},
		{[]string{"-stream", "-ports", "-1"}, 2, "-ports must be at least 1, got -1", ""},
		{[]string{"-stream", "-window", "0"}, 2, "-window must be at least 1, got 0", ""},
		{[]string{"-stream", "-maxpending", "0"}, 2, "-maxpending must be at least 1, got 0", ""},
		{[]string{"-stream", "-maxpending", "-5"}, 2, "-maxpending must be at least 1, got -5", ""},
		{[]string{"-stream", "-shards", "0"}, 2, "-shards must be at least 1, got 0", ""},
		{[]string{"-stream", "-shards", "-3"}, 2, "-shards must be at least 1, got -3", ""},
		{[]string{"-stream", "-flows", "0"}, 2, "-flows must be at least 1, got 0", ""},
		{[]string{"-stream", "-flows", "-1"}, 2, "-flows must be at least 1, got -1", ""},
		{[]string{"-stream", "-checkpoint", "unwritten.ckpt", "-checkpointrounds", "-3"}, 2, "-checkpointrounds must not be negative, got -3", ""},
		{[]string{"-stream", "-verifyevery", "-3", "-flows", "2000"}, 2, "-verifyevery must not be negative, got -3", ""},
		{[]string{"-stream", "-ports", "2", "-restore", zeroShards}, 2, "-shards must be at least 1, got 0", ""},
		{[]string{"-stream", "-ports", "2", "-restore", zeroLimit}, 2, "-maxpending must be at least 1, got 0", ""},
		{[]string{"art", "-ports", "0"}, 2, "-ports must be at least 1, got 0", ""},
		{[]string{"gen", "-ports", "0"}, 2, "-ports must be at least 1, got 0", ""},
		{[]string{"art", "-c", "0"}, 2, "-c must be at least 1, got 0", "core:"},
		{[]string{"mrt", "-dmax", "0"}, 2, "-dmax must be at least 1, got 0", ""},
		{[]string{"mrt", "-dmax", "-3"}, 2, "-dmax must be at least 1, got -3", "capacity"},
		{[]string{"gen", "-dmax", "0"}, 2, "-dmax must be at least 1, got 0", ""},
		{[]string{"-dmax", "0"}, 2, "-dmax must be at least 1, got 0", ""},
		{[]string{"-stream", "-dmax", "-3"}, 2, "-dmax must be at least 1, got -3", ""},
		{[]string{"paper", "-fig", "t1", "-trials", "0"}, 2, "-trials must be at least 1, got 0", ""},
		{[]string{"paper", "-fig", "t1", "-lptrials", "0"}, 2, "-lptrials must be at least 1, got 0", ""},
		{[]string{"gen", "-kind", "nosuch"}, 2, `unknown kind "nosuch"`, ""},
		{[]string{"-policy", "nosuch"}, 2, `unknown policy "nosuch"`, ""},
		{[]string{"art", "-in", "/nonexistent/instance.json"}, 1, "flowsim art: open", ""},
		{[]string{"art", "-h"}, 0, "-schedule", "-stream"},
		{[]string{"mrt", "-h"}, 0, "-deadlines", "-kind"},
		{[]string{"gen", "-h"}, 0, "-teachers", "-fig"},
		{[]string{"-h"}, 0, "-stream", "-deadlines"},
	} {
		var stderr bytes.Buffer
		if got := dispatch(c.args, &stderr); got != c.status {
			t.Errorf("flowsim %v: exit status %d, want %d (stderr %q)", c.args, got, c.status, &stderr)
		}
		if !strings.Contains(stderr.String(), c.want) || (c.not != "" && strings.Contains(stderr.String(), c.not)) {
			t.Errorf("flowsim %v: stderr %q, want it to contain %q and not %q", c.args, &stderr, c.want, c.not)
		}
	}
}
