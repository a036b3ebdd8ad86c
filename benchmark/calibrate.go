package main

import "time"

// The boxes this benchmark runs on are small shared VMs whose effective
// speed moves by 20-30 % for minutes at a time (memory-system contention
// from neighbours: a pure ALU loop stays flat while every workload, wall
// and CPU alike, slows together). Ten-second medians cannot average that
// out, so every gated time is divided by the slowdown of a fixed reference
// kernel run right before and right after it in the same process. The
// kernel is program-independent on purpose — calibrating against the
// program's own code would hide exactly the changes the benchmark exists
// to show. Every scaled time keeps the clock's reading beside it (sample's
// rawWall and rawCPU, the suite's raw series); README.md has both per
// workload, and the one the scaling does not help, offline_paper.

// referenceSeconds is what one pass of the reference kernel took on the
// box the bounds were sized on (2-core Xeon 2.1 GHz) in its quiet phases.
// Gated times read as if measured at that speed: a host at its nominal
// speed reports raw numbers.
const referenceSeconds = 0.080

// reference is the kernel: a dependent random walk of referenceSteps loads
// over a 32 MB table, DRAM-latency bound. Of the kernels tried beside the
// workloads for 14 minutes each (sort of 4 MB, random reads in 2, 8 and
// 32 MB, an ALU loop) it tracked them best: raw ten-second medians spread
// 10-20 % between quiet and noisy phases of the box, divided by this
// kernel 4-9 %; the ALU loop did not move at all.
type reference struct {
	table  []uint64
	steps  int
	last   float64 // seconds of the most recent pass
	passes []float64
	sink   uint64
}

const (
	referenceTable = 1 << 22 // uint64 entries: 32 MB
	referenceSteps = 1 << 19
)

// newReference builds the kernel; scale > 1 (the smoke pass) shrinks it
// with everything else, and its numbers mean nothing then.
func newReference(scale int) *reference {
	c := &reference{table: make([]uint64, referenceTable/scale), steps: referenceSteps / scale}
	x := uint64(2463534242)
	for i := range c.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.table[i] = x & 0xff
	}
	c.pass() // the first pass also pages the table in
	return c
}

// pass runs the kernel once and remembers how long it took.
func (c *reference) pass() float64 {
	start := time.Now()
	x, sum := uint64(88172645463325252), c.sink
	size := uint64(len(c.table))
	for i := 0; i < c.steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += c.table[(x+sum)%size] // the next index waits for this load
	}
	c.sink = sum
	c.last = time.Since(start).Seconds()
	c.passes = append(c.passes, c.last)
	return c.last
}

// slowdown brackets a section that has just finished: it runs one more
// pass and returns how much slower than nominal the host ran, from the
// passes before and after the section.
func (c *reference) slowdown() float64 {
	before := c.last
	return (before + c.pass()) / 2 / referenceSeconds
}

// since is the time since start as a sample scaled to the reference speed.
func (c *reference) since(start time.Time) sample {
	return c.calibrated(sample{wall: time.Since(start).Seconds()})
}

// calibrated scales a section's wall and CPU to the reference speed and
// keeps what the clocks read beside them.
func (c *reference) calibrated(s sample) sample {
	k := c.slowdown()
	s.rawWall, s.rawCPU = s.wall, s.cpu
	s.wall /= k
	s.cpu /= k
	return s
}
