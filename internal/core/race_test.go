//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops items at random,
// so an allocation count through a pool is not the engine's.
const raceEnabled = true
