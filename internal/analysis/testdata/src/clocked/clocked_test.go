package clocked

import (
	"testing"
	"time"
)

// The driver loads only a package's GoFiles: this ungated clock read in
// a test file of a clockgated package is no finding.
func TestUngatedClock(t *testing.T) {
	_ = time.Now()
}
