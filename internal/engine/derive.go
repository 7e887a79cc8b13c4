package engine

import (
	"context"
	"fmt"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/sarsa"
	"github.com/rlplanner/rlplanner/internal/transfer"
)

// DeriveStats reports what a warm-start derivation did.
type DeriveStats struct {
	// Source names the instance the source policy was trained on.
	Source string
	// Distance is the transfer mapping's warm-start distance in [0, 1]:
	// the fraction of target items without an exact-id source match.
	Distance float64
	// ColdEpisodes is the episode budget a cold training run would have
	// used; WarmEpisodes is the distance-scaled budget the derivation
	// actually trained.
	ColdEpisodes int
	WarmEpisodes int
}

// Derive trains a policy for inst by warm-starting from an existing
// policy instead of from zeros: the source Q table is re-indexed onto
// the target catalog through the transfer mapping (exact ids first,
// topic similarity second), training seeds from the mapped table, and
// the episode budget shrinks by the warm-start distance
// (transfer.WarmBudget) — a k-item catalog change retrains roughly k/n
// of the cold budget. The derived artifact records its provenance
// (WarmStartedPolicy).
//
// The source must be a tabular policy (ValuePolicy). Derivation keeps
// the source's TD engine when it is one of the Algorithm 1 learners and
// falls back to SARSA otherwise.
func Derive(ctx context.Context, src Policy, inst *dataset.Instance, opts core.Options) (Policy, DeriveStats, error) {
	var stats DeriveStats
	mapped, m, err := mapSource("derive", src, inst)
	if err != nil {
		return nil, stats, err
	}

	engineName := src.Engine()
	if engineName != "sarsa" && engineName != "qlearning" {
		engineName = "sarsa"
	}

	cold := opts.Episodes
	if cold <= 0 {
		cold = inst.Defaults.Episodes
	}
	stats = DeriveStats{
		Source:       src.Instance(),
		Distance:     m.Distance(),
		ColdEpisodes: cold,
		WarmEpisodes: transfer.WarmBudget(cold, m.Distance()),
	}

	opts.Episodes = stats.WarmEpisodes
	opts.InitQ = mapped.Q
	pol, err := Train(ctx, engineName, inst, opts)
	if err != nil {
		return nil, stats, err
	}
	if v, ok := pol.(*valuePolicy); ok {
		v.warmFrom = src.Instance()
		v.warmDistance = stats.Distance
	}
	return pol, stats, nil
}

// Transfer applies a tabular policy to a related instance without
// training (the §IV-D case study: DS-CT ↔ CS, NYC ↔ Paris): the source Q
// table is re-indexed onto the target catalog through the same mapping
// Derive seeds from, and the result serves from the target's cached
// environment under opts, exactly as a loaded artifact would. The
// policy keeps the source's engine name. The mapping is returned beside
// it.
func Transfer(src Policy, inst *dataset.Instance, opts core.Options) (Policy, *transfer.Mapping, error) {
	mapped, m, err := mapSource("transfer", src, inst)
	if err != nil {
		return nil, nil, err
	}
	v, err := bindValues(src.Engine(), inst, opts, mapped)
	if err != nil {
		return nil, nil, err
	}
	return v, m, nil
}

// mapSource checks that src is a tabular policy and inst a target, then
// re-indexes src's Q table onto inst's catalog (exact ids first, topic
// similarity second). op names the caller in errors.
func mapSource(op string, src Policy, inst *dataset.Instance) (*sarsa.Policy, *transfer.Mapping, error) {
	vp, ok := src.(ValuePolicy)
	if !ok || vp.Values() == nil {
		return nil, nil, fmt.Errorf("engine: %s needs a tabular source policy, %s is procedural", op, src.Engine())
	}
	if inst == nil {
		return nil, nil, fmt.Errorf("engine: %s: nil target instance", op)
	}
	mapped, m, err := transfer.Map(vp.Values(), vp.Env().Catalog(), inst.Catalog)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: %s: %w", op, err)
	}
	return mapped, m, nil
}
