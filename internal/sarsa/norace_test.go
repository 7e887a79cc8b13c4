//go:build !race

package sarsa

const raceEnabled = false
