// Package transfer implements the policy-transfer case study of §IV-D:
// applying a Q policy learned on one catalog (M.S. CS, NYC) to another
// (M.S. DS-CT, Paris). The Q table is re-indexed through an item mapping:
//
//   - items sharing an id map directly (the Univ-1 programs overlap in
//     courses such as CS 675 and CS 652, with possibly different
//     core/elective roles — exactly the situation of Table V);
//   - otherwise an item maps to the source item with the most similar
//     topic profile, compared by Jaccard similarity over topic *names*
//     (the vocabularies differ across catalogs, names are the common
//     currency — a Paris museum maps to a NYC museum);
//   - items with no overlap at all stay unmapped and contribute zero Q.
package transfer

import (
	"fmt"

	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/sarsa"
)

// Mapping reports how target items were matched to source items.
type Mapping struct {
	// DstToSrc maps each target index to a source index, or -1.
	DstToSrc []int
	// ByID counts exact id matches.
	ByID int
	// ByTopic counts topic-similarity matches.
	ByTopic int
	// Unmatched counts target items with no source counterpart.
	Unmatched int
}

// Match computes the target→source item mapping without transferring a
// policy: exact id matches first, then best topic-name Jaccard
// similarity, then unmatched. The warm-start path uses it to rank
// candidate source artifacts by Distance before paying for Map.
func Match(srcCat, dstCat *item.Catalog) *Mapping {
	srcTopics := topicNameSets(srcCat)
	dstTopics := topicNameSets(dstCat)

	m := &Mapping{DstToSrc: make([]int, dstCat.Len())}
	for d := 0; d < dstCat.Len(); d++ {
		if s, ok := srcCat.Index(dstCat.At(d).ID); ok {
			m.DstToSrc[d] = s
			m.ByID++
			continue
		}
		best, bestSim := -1, 0.0
		for s := 0; s < srcCat.Len(); s++ {
			if sim := jaccard(dstTopics[d], srcTopics[s]); sim > bestSim {
				best, bestSim = s, sim
			}
		}
		m.DstToSrc[d] = best
		if best >= 0 {
			m.ByTopic++
		} else {
			m.Unmatched++
		}
	}
	return m
}

// Distance is the warm-start distance of the mapping: the fraction of
// target items without an exact-id source counterpart, in [0, 1]. A
// catalog that changed by k items out of n is distance k/n from its
// ancestor; an unrelated catalog is near 1. Topic matches still count
// toward distance — they transfer useful but inexact values.
func (m *Mapping) Distance() float64 {
	if len(m.DstToSrc) == 0 {
		return 1
	}
	return float64(m.ByTopic+m.Unmatched) / float64(len(m.DstToSrc))
}

// MinWarmFraction floors the warm-start episode budget: even a
// near-identical catalog retrains at least this fraction of the cold
// budget, so the re-indexed values get refreshed against the new
// environment's rewards and constraints.
const MinWarmFraction = 0.1

// WarmBudget scales a cold-start episode budget by warm-start distance
// (DESIGN §12): budget = ceil(cold · max(distance, MinWarmFraction)),
// clamped to [1, cold]. A k-item perturbation of an n-item catalog thus
// retrains about k/n of the cold budget instead of all of it.
func WarmBudget(cold int, distance float64) int {
	if cold <= 0 {
		return 1
	}
	f := distance
	if f < MinWarmFraction {
		f = MinWarmFraction
	}
	if f >= 1 {
		return cold
	}
	b := int(float64(cold)*f + 0.999999)
	if b < 1 {
		b = 1
	}
	if b > cold {
		b = cold
	}
	return b
}

// Map re-indexes a source policy onto a target catalog and returns the
// transferred policy plus the mapping diagnostics.
func Map(src *sarsa.Policy, srcCat, dstCat *item.Catalog) (*sarsa.Policy, *Mapping, error) {
	if src == nil || src.Q == nil {
		return nil, nil, fmt.Errorf("transfer: nil source policy")
	}
	if src.Q.Size() != srcCat.Len() {
		return nil, nil, fmt.Errorf("transfer: policy size %d vs source catalog %d",
			src.Q.Size(), srcCat.Len())
	}
	m := Match(srcCat, dstCat)

	// Walk the source's stored cells through a reverse source→targets
	// index instead of probing all n² target pairs: zero cells transfer
	// as zero for free, so the work follows the visited set — the only
	// tractable shape when the source is a sparse catalog-scale table.
	rev := make([][]int32, srcCat.Len())
	for d, s := range m.DstToSrc {
		if s >= 0 {
			rev[s] = append(rev[s], int32(d))
		}
	}
	q := qtable.New(dstCat.Len())
	src.Q.EachStored(func(ss, se int, v float64) {
		if ss == se {
			return // the original pair loop skipped ms == me
		}
		for _, ds := range rev[ss] {
			for _, de := range rev[se] {
				q.Set(int(ds), int(de), v)
			}
		}
	})
	return &sarsa.Policy{Q: q}, m, nil
}

// topicNameSets extracts each item's topic names.
func topicNameSets(c *item.Catalog) []map[string]bool {
	out := make([]map[string]bool, c.Len())
	vocab := c.Vocabulary()
	for i := 0; i < c.Len(); i++ {
		set := make(map[string]bool)
		for _, idx := range c.At(i).Topics.Indices() {
			set[vocab.Name(idx)] = true
		}
		out[i] = set
	}
	return out
}

// jaccard computes |a∩b| / |a∪b|; 0 when either set is empty.
func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
