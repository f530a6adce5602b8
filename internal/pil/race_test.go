//go:build race

package pil

// raceEnabled reports a -race build, whose sync.Pool drops puts at random.
const raceEnabled = true
