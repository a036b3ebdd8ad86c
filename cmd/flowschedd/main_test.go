package main

import (
	"bytes"
	"net"
	"strings"
	"testing"
)

// TestRunRefuses drives the daemon's command line without exec: each
// refusal returns its status before a listener starts, 2 for a flag value
// the daemon cannot run with and 1 for anything else.
func TestRunRefuses(t *testing.T) {
	// Hold the address run would listen on, so a refusal that slipped
	// through fails at once instead of serving.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, c := range []struct {
		args   []string
		status int
		want   string // in stderr
	}{
		{[]string{"-shards", "0"}, 2, "-shards must be at least 1, got 0"},
		{[]string{"-tracerounds", "-1"}, 2, "-tracerounds must be in [0, 16777216], got -1"},
		{[]string{"-sloobjective", "1"}, 2, "-sloobjective must be in [0, 1), got 1"},
		{[]string{"-checkpointevery", "-1s"}, 2, "-checkpointevery must not be negative, got -1s"},
		{[]string{"-nosuchflag"}, 2, "flag provided but not defined: -nosuchflag"},
		{[]string{"-policy", "nosuch"}, 2, `unknown policy "nosuch"`},
		// A paper heuristic resolves but is not Shardable: a config
		// error from the runtime, not a panic.
		{[]string{"-policy", "MinRTime", "-shards", "2"}, 1, `policy "MinRTime" cannot run sharded`},
		{[]string{"-admit", "bogus"}, 2, `unknown admission mode "bogus"`},
		{[]string{"-restore", "/nonexistent.ckpt"}, 1, "/nonexistent.ckpt"},
		{[]string{"-h"}, 0, "-checkpointevery"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-addr", ln.Addr().String()}, c.args...)
		if got := run(args, &stdout, &stderr); got != c.status {
			t.Errorf("flowschedd %v: exit status %d, want %d (stderr %q)", c.args, got, c.status, &stderr)
		}
		if !strings.Contains(stderr.String(), c.want) || strings.Contains(stderr.String(), "listening on") {
			t.Errorf("flowschedd %v: stderr %q, want it to contain %q and no listener", c.args, &stderr, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("flowschedd %v: stdout %q, want nothing", c.args, &stdout)
		}
	}
}
