//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops pooled items at random, so the simulator re-allocates
// message columns the allocation tests would otherwise see reused.
const raceEnabled = true
