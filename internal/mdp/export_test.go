package mdp

import (
	"math"
	"slices"
)

// EpisodeDiff names the first trajectory field in which a and b differ,
// or returns "" when none does. It compares every field Env.Start builds
// and admit writes, the per-step candidate type buffer included.
func EpisodeDiff(a, b *Episode) string {
	switch {
	case a.env != b.env:
		return "env"
	case !slices.Equal(a.seq, b.seq):
		return "seq"
	case !slices.Equal(a.seqTypes, b.seqTypes):
		return "seqTypes"
	case !slices.Equal(a.positions, b.positions):
		return "positions"
	case !slices.Equal(a.chosen, b.chosen):
		return "chosen"
	case !slices.Equal(a.prereqOK, b.prereqOK):
		return "prereqOK"
	case !a.current.Equal(b.current):
		return "current"
	case math.Float64bits(a.credits) != math.Float64bits(b.credits):
		return "credits"
	case math.Float64bits(a.distance) != math.Float64bits(b.distance):
		return "distance"
	case a.legCheck != b.legCheck:
		return "legCheck"
	case a.themeBlock != b.themeBlock:
		return "themeBlock"
	case math.Float64bits(a.simByType[0]) != math.Float64bits(b.simByType[0]) ||
		math.Float64bits(a.simByType[1]) != math.Float64bits(b.simByType[1]):
		return "simByType"
	case !slices.Equal(a.candTypes, b.candTypes):
		return "candTypes"
	}
	return ""
}

// PrereqFlips counts the items whose prerequisite cache no longer holds
// its nothing-placed value.
func PrereqFlips(ep *Episode) int {
	n := 0
	for i, ok := range ep.prereqOK {
		if ok != ep.env.prereqInit[i] {
			n++
		}
	}
	return n
}
