// Package reachmod is the fixture module's root package: its exports are
// no root, so the binary must reach each of them.
package reachmod

// Called is called from main.
func Called() {}

// Facade is exported but called by nothing.
func Facade() {} // want `reach: reachmod\.Facade is reached by no binary`

// Default is an initialised var nothing reads.
var Default = 1 // want `reach: reachmod\.Default is reached by no binary`
