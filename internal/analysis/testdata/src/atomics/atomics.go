// Package atomics exercises the atomicfield analyzer: a shared word is a
// typed atomic, driven through its methods and never copied; no code
// calls a sync/atomic package-level function.
package atomics

import "sync/atomic"

type counters struct {
	hits int64
	cold int64
	live atomic.Int64
}

// Bump drives a plain word through sync/atomic, which leaves every other
// access to it free to be plain.
func (c *counters) Bump() {
	atomic.AddInt64(&c.hits, 1) // want `atomic: call to atomic\.AddInt64 on a plain word: use the typed atomics`
}

// ColdOnly never goes through sync/atomic, so plain access is fine.
func (c *counters) ColdOnly() int64 {
	c.cold++
	return c.cold
}

// LiveOK drives a typed atomic through its methods.
func (c *counters) LiveOK() int64 {
	c.live.Add(1)
	return c.live.Load()
}

// LiveCopy moves the typed atomic by value, detaching it.
func (c *counters) LiveCopy() atomic.Int64 {
	return c.live // want `atomic: field live has type sync/atomic\.Int64 and must not be copied by value`
}
