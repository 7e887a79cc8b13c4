//go:build race

package sarsa

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what it is given, so pooled buffers are reallocated at random.
const raceEnabled = true
