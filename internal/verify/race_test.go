//go:build race

package verify

const raceEnabled = true
