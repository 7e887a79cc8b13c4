package engine

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/sarsa"
)

// Fingerprint returns inst.Digest(), the identity of the catalog a
// policy is trained on (Policy.Fingerprint). The benchmark module's
// replay calls it by name.
func Fingerprint(inst *dataset.Instance) string { return inst.Digest() }

const (
	// artifactMagic guards against feeding arbitrary gob streams (or the
	// pre-registry raw policy format) into Load.
	artifactMagic = "rlplanner-policy"
	// ArtifactVersion is the artifact format version, and the only one
	// Load reads. v4 names the training catalog by its content digest and
	// stores every Q table as its sorted non-zero cells. An older artifact
	// names its catalog by a coarser fingerprint (ids, types, credits and
	// topics only), so it cannot show that its catalog matches; it is
	// refused, as is a newer one, with an error naming both versions.
	ArtifactVersion = 4
)

// artifact is the on-disk form of a Policy: a header identifying the
// format, engine and training catalog, plus the engine-specific payload
// (the Q table's cells for tabular engines, the tie-break seed for
// procedural ones).
type artifact struct {
	Magic       string
	Version     int
	Engine      string
	Instance    string
	Fingerprint string
	Items       int
	Seed        int64
	// QS/QE/QV are the Q table's non-zero cells (state, action, value),
	// sorted by state and then action, as Table.EachStored yields them.
	// The payload follows the visited cells, not n², whatever the
	// representation the table was trained in.
	QS []int32
	QE []int32
	QV []float64
	// Episodes records how many learning episodes completed — for a
	// partial checkpoint, how far training got before its deadline.
	Episodes int
	// Degraded preserves the policy's degradation marker (e.g.
	// DegradedPartial) across save/load.
	Degraded string
	// WarmFrom/WarmDistance record warm-start provenance for derived
	// policies ("" / 0 for cold-trained ones).
	WarmFrom     string
	WarmDistance float64
}

// artifactFor snapshots a policy. values is nil for procedural engines.
func artifactFor(m meta, values *sarsa.Policy, seed int64) artifact {
	a := artifact{
		Magic:        artifactMagic,
		Version:      ArtifactVersion,
		Engine:       m.engine,
		Instance:     m.instance,
		Fingerprint:  m.fp,
		Seed:         seed,
		Episodes:     m.episodes,
		Degraded:     m.degraded,
		WarmFrom:     m.warmFrom,
		WarmDistance: m.warmDistance,
	}
	if values != nil {
		a.Items = values.Q.Size()
		values.Q.EachStored(func(s, e int, v float64) {
			a.QS = append(a.QS, int32(s))
			a.QE = append(a.QE, int32(e))
			a.QV = append(a.QV, v)
		})
	}
	return a
}

func saveArtifact(w io.Writer, a artifact) error {
	return gob.NewEncoder(w).Encode(a)
}

// decodeArtifact reads and sanity-checks an artifact header against the
// target instance.
func decodeArtifact(r io.Reader, inst *dataset.Instance) (artifact, error) {
	var a artifact
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		// A bare gob error ("unexpected EOF") tells an operator nothing;
		// name the format and the version this reader understands so a
		// truncated or foreign file is diagnosable from the message.
		return a, fmt.Errorf("engine: decode policy artifact (format v%d): %w", ArtifactVersion, err)
	}
	if a.Magic != artifactMagic {
		return a, fmt.Errorf("engine: not an RL-Planner policy artifact (magic %q)", a.Magic)
	}
	if a.Version != ArtifactVersion {
		why := "it is newer than this reader: upgrade the reader"
		if a.Version < ArtifactVersion {
			why = "its coarser catalog fingerprint cannot show that the catalog matches: retrain or re-export the policy"
		}
		return a, fmt.Errorf("engine: policy artifact format v%d, this reader reads only v%d: %s",
			a.Version, ArtifactVersion, why)
	}
	if fp := inst.Digest(); a.Fingerprint != fp {
		return a, fmt.Errorf("engine: policy was trained on %q (catalog fingerprint %s) but target instance %q has fingerprint %s — refusing to replay it against a different catalog",
			a.Instance, a.Fingerprint, inst.Name, fp)
	}
	return a, nil
}

// restoreValues rebuilds the Q-table policy of a tabular artifact in the
// representation training picks for its size (qtable.New). It is the one
// place a serialized Q payload is checked.
func restoreValues(a artifact, inst *dataset.Instance) (*sarsa.Policy, error) {
	if a.Items != inst.Catalog.Len() {
		return nil, fmt.Errorf("engine: policy covers %d items, instance %q has %d", a.Items, inst.Name, inst.Catalog.Len())
	}
	if a.Items <= 0 || len(a.QS) != len(a.QE) || len(a.QS) != len(a.QV) {
		return nil, fmt.Errorf("engine: corrupt %s artifact (n=%d, %d/%d/%d coordinates)",
			a.Engine, a.Items, len(a.QS), len(a.QE), len(a.QV))
	}
	q := qtable.New(a.Items)
	for i := range a.QS {
		s, e := int(a.QS[i]), int(a.QE[i])
		if err := checkCell(&a, s, e, a.QV[i]); err != nil {
			return nil, err
		}
		q.Set(s, e, a.QV[i])
	}
	return &sarsa.Policy{Q: q}, nil
}

// checkCell refuses a cell outside the Items×Items table or holding NaN
// or ±Inf. Eq. 2 rewards are bounded and every TD step is a convex
// combination (α ≤ 1, γ ≤ 1), so a trained table is always finite: a
// non-finite cell can only come from a corrupt or forged artifact.
func checkCell(a *artifact, s, e int, v float64) error {
	if s < 0 || s >= a.Items || e < 0 || e >= a.Items {
		return fmt.Errorf("engine: corrupt %s artifact: cell (%d,%d) out of range [0,%d)", a.Engine, s, e, a.Items)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("engine: corrupt %s artifact: Q(%d,%d) = %v is not finite", a.Engine, s, e, v)
	}
	return nil
}

// Load restores a policy artifact against an instance. opts rebind the
// environment (reward configuration, start item, thresholds) exactly as
// they would for training; the learned values themselves come from the
// artifact. Procedural engines (EDA, OMEGA, gold) carry no values — their
// construction is re-run, seeded from the artifact.
func Load(r io.Reader, inst *dataset.Instance, opts core.Options) (Policy, error) {
	a, err := decodeArtifact(r, inst)
	if err != nil {
		return nil, err
	}
	d, err := lookup(a.Engine)
	if err != nil {
		return nil, err
	}
	if !d.Tabular {
		opts.Seed = a.Seed
		return d.Train(context.Background(), inst, opts)
	}
	values, err := restoreValues(a, inst)
	if err != nil {
		return nil, err
	}
	// Rebind against the cached environment rather than a fresh one.
	v, err := bindValues(d.Name, inst, opts, values)
	if err != nil {
		return nil, err
	}
	v.episodes = a.Episodes
	v.degraded = a.Degraded
	v.warmFrom = a.WarmFrom
	v.warmDistance = a.WarmDistance
	return v, nil
}
