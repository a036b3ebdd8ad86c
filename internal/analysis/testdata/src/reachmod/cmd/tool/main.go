// Command tool is the fixture module's one binary.
package main

import (
	"reachmod"
	"reachmod/lib"
)

func main() {
	var t lib.T
	t.Called()
	lib.Used()
	lib.AlsoUsed()
	reachmod.Called()
}
