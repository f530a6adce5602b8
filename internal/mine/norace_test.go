//go:build !race

package mine

// raceEnabled reports a -race build, whose sync.Pool drops puts at random.
const raceEnabled = false
