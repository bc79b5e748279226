//go:build !race

package bess

const raceEnabled = false
