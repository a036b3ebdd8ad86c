// Package hot2 exercises cross-package fact propagation: the allocation
// sits two calls below the root, in another package entirely.
package hot2

import "fixtures/hotpathmod/dep"

//flowsched:hotpath
func Root() int { return level1() }

func level1() int { return level2() }

func level2() int {
	s := dep.Alloc() // want `alloc: hot path \(Root → level1 → level2\): calls dep\.Alloc`
	return len(s) + dep.Pure(1)
}
