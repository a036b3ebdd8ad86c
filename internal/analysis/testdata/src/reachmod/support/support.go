// Package support is test support no binary imports: its mark makes
// every declaration in it a root.
//
//flowsched:testonly the fixture's tests import it
package support

import "reachmod/lib"

// Helper reaches lib.ViaPackageMark.
func Helper() { lib.ViaPackageMark() }

func unexported() {}
