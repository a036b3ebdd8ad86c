// Package lib holds the reach check's cases.
package lib

// Used is reached from main.
func Used() { helper() }

func helper() {}

// Unused is reached by nothing.
func Unused() {} // want `reach: lib\.Unused is reached by no binary`

// T is reached from main; its uncalled method rides along.
type T struct{}

// Called is called from main.
func (T) Called() {}

// Uncalled is never called: a method of a reached type is no finding,
// and reaches what it calls.
func (T) Uncalled() { viaMethod() }

func viaMethod() {}

// Oracle is test support; the mark reaches its callee too.
//
//flowsched:testonly the fixture's tests call it
func Oracle() int { return oracleStep() }

func oracleStep() int { return 1 }

// ViaPackageMark is reached only through the marked package support.
func ViaPackageMark() {}

// Bare carries a mark without a reason: the mark is malformed and no
// root, so Bare is unreached as well.
//
//flowsched:testonly // want `directive: //flowsched:testonly needs a reason`
func Bare() {} // want `reach: lib\.Bare is reached by no binary`

// AlsoUsed is called from main, so its mark is a finding.
//
//flowsched:testonly the fixture's tests call it // want `reach: //flowsched:testonly on code a binary already reaches`
func AlsoUsed() {}
