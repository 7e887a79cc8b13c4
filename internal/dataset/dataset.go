// Package dataset defines the common shape of a planning problem instance:
// a catalog with its constraints, the Table III default parameters, and
// metadata the experiment harness needs (gold score, default start item).
// Concrete instances live in the univ and trip sub-packages, which
// synthesize datasets matching the statistics of the paper's NJIT,
// Stanford and Flickr sources (see DESIGN.md §3 for the substitutions).
package dataset

import (
	"fmt"
	"sync"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// Kind distinguishes the two application domains.
type Kind uint8

const (
	// CoursePlanning marks university degree-program instances.
	CoursePlanning Kind = iota
	// TripPlanning marks city itinerary instances.
	TripPlanning
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CoursePlanning:
		return "course"
	case TripPlanning:
		return "trip"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Defaults carries the Table III default parameter values for an instance.
type Defaults struct {
	// Episodes is N.
	Episodes int
	// Alpha is the learning rate α.
	Alpha float64
	// Gamma is the discount factor γ.
	Gamma float64
	// Epsilon is the topic coverage threshold ε.
	Epsilon float64
	// Delta and Beta weight the similarity and type terms of Eq. 2.
	Delta, Beta float64
	// W1 and W2 are the primary/secondary item weights.
	W1, W2 float64
	// CategoryWeights, when non-empty, replaces W1/W2 with one weight per
	// sub-discipline (Univ-2's w1..w6).
	CategoryWeights []float64
	// Sim is the similarity aggregation mode (average by default).
	Sim seqsim.Mode
}

// Instance is one planning problem: a degree program or a city trip.
type Instance struct {
	// Name identifies the instance, e.g. "Univ-1 M.S. DS-CT" or "Paris".
	Name string
	// Kind is the application domain.
	Kind Kind
	// Catalog is the item set I.
	Catalog *item.Catalog
	// Hard is P_hard.
	Hard constraints.Hard
	// Soft is P_soft.
	Soft constraints.Soft
	// DefaultStart is the Table III starting item id (s_1).
	DefaultStart string
	// Defaults are the Table III parameter defaults.
	Defaults Defaults
	// GoldScore is the handcrafted gold standard's score: 10 for Univ-1,
	// 15 for Univ-2, 5 for trips (§IV-A2).
	GoldScore float64

	// digestOnce and digest memoize Digest; an Instance is immutable
	// once built.
	digestOnce sync.Once
	digest     string
}

// Validate performs consistency checks a generator must satisfy.
func (in *Instance) Validate() error {
	if in.Catalog == nil || in.Catalog.Len() == 0 {
		return fmt.Errorf("dataset %s: empty catalog", in.Name)
	}
	if _, ok := in.Catalog.Index(in.DefaultStart); !ok {
		return fmt.Errorf("dataset %s: default start %q not in catalog", in.Name, in.DefaultStart)
	}
	if in.Hard.Length() > 0 {
		if err := in.Soft.Template.Validate(in.Hard.Primary, in.Hard.Secondary); err != nil {
			return fmt.Errorf("dataset %s: %w", in.Name, err)
		}
	}
	if in.Soft.Ideal.Len() != in.Catalog.Vocabulary().Len() {
		return fmt.Errorf("dataset %s: ideal vector length %d vs vocabulary %d",
			in.Name, in.Soft.Ideal.Len(), in.Catalog.Vocabulary().Len())
	}
	if in.Catalog.NumPrimary() < in.Hard.Primary {
		return fmt.Errorf("dataset %s: catalog has %d primaries, constraints need %d",
			in.Name, in.Catalog.NumPrimary(), in.Hard.Primary)
	}
	if in.Catalog.NumSecondary() < in.Hard.Secondary {
		return fmt.Errorf("dataset %s: catalog has %d secondaries, constraints need %d",
			in.Name, in.Catalog.NumSecondary(), in.Hard.Secondary)
	}
	return nil
}

// StartIndex resolves DefaultStart to a catalog index.
func (in *Instance) StartIndex() int {
	i, ok := in.Catalog.Index(in.DefaultStart)
	if !ok {
		panic(fmt.Sprintf("dataset %s: default start %q missing", in.Name, in.DefaultStart))
	}
	return i
}
