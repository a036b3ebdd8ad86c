package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestContractInStep fails when BENCHMARK.json and this package's tables
// drift apart: regenerate the file with `go run ./benchmark -contract`.
func TestContractInStep(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, contract()) {
		t.Errorf("BENCHMARK.json differs from contract(); run `go run ./benchmark -contract > BENCHMARK.json`")
	}
}

// TestContractLimits holds the tables to the limits the builder's
// contract refuses a benchmark over.
func TestContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a contract name", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, contract allows 1 to 200", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, d := range endToEnd {
		use(d.name)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		setup = setup || d.name == "setup_s" && d.unit == "s" && d.better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(d.unit) {
			t.Errorf("%s: unit %q is not a contract unit", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better is %q", d.name, d.better)
		}
		if d.note == "" {
			t.Errorf("%s: no definition or prediction written down", d.name)
		}
	}
	for _, d := range perLayer {
		use(d.name)
	}
	if len(contract()) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, contract allows 64 KiB", len(contract()))
	}
}
