package stream

// Hooks for the external stream_test suites. This file is compiled into
// test binaries only, so nothing outside the tests can reach them.

// SetTargetFactor makes p's picks aim their stages at n candidates per
// unit of free input capacity instead of ofFactor: 1 cuts after almost
// every release, a negative n after every one, a huge n never cuts, 0
// restores the default. The schedule must not depend on it.
func (p *OldestFirst) SetTargetFactor(n int) { p.factor = n }

// Stages reports how many stages p's picks have run so far.
func (p *OldestFirst) Stages() int64 { return p.stages }
