//go:build race

package bess

// raceEnabled: under the race detector sync.Pool drops items at random,
// so an allocation count through a pool is not the platform's.
const raceEnabled = true
