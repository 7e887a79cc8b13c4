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

const (
	// artifactMagic guards against feeding arbitrary gob streams (or the
	// pre-registry raw policy format) into Load.
	artifactMagic = "rlplanner-policy"
	// ArtifactVersion is the current artifact format version. Readers
	// accept any version up to this one; newer versions are refused with
	// an explicit error instead of a misdecode. v2 added the training
	// provenance fields (Episodes, Degraded, WarmFrom, WarmDistance);
	// v3 added the sparse coordinate payload (QS/QE/QV) for policies
	// whose tables exceed the dense threshold. Gob leaves absent fields
	// zero when decoding an older stream, and dense v3 artifacts are
	// byte-compatible with v2 readers' expectations for every catalog a
	// v2 writer could produce.
	ArtifactVersion = 3
)

// artifact is the on-disk form of a Policy: a header identifying the
// format, engine and training catalog, plus the engine-specific payload
// (the flattened Q table for tabular engines, the tie-break seed for
// procedural ones).
type artifact struct {
	Magic       string
	Version     int
	Engine      string
	Instance    string
	Fingerprint string
	Items       int
	Seed        int64
	// Q is the flattened dense table; QS/QE/QV are the sorted visited-cell
	// coordinates of a sparse-backed one. Tabular artifacts carry exactly
	// one of the two payloads.
	Q   []float64
	QS  []int32
	QE  []int32
	QV  []float64
	IDs []string
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
		n := values.Q.Size()
		a.Items = n
		a.IDs = values.IDs
		if values.Q.IsDense() {
			a.Q = make([]float64, 0, n*n)
			for s := 0; s < n; s++ {
				a.Q = append(a.Q, values.Q.Row(s)...)
			}
		} else {
			// Sparse payload: artifact size follows the visited cells, so a
			// 100k-item policy saves in megabytes instead of an 80 GB flat
			// table that could never be materialized to begin with.
			values.Q.EachStored(func(s, e int, v float64) {
				a.QS = append(a.QS, int32(s))
				a.QE = append(a.QE, int32(e))
				a.QV = append(a.QV, v)
			})
		}
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
		// name the format and the version range this reader understands so
		// a truncated or foreign file is diagnosable from the message.
		return a, fmt.Errorf("engine: decode policy artifact (format v1-v%d): %w", ArtifactVersion, err)
	}
	if a.Magic != artifactMagic {
		return a, fmt.Errorf("engine: not an RL-Planner policy artifact (magic %q)", a.Magic)
	}
	if a.Version > ArtifactVersion {
		return a, fmt.Errorf("engine: policy artifact format v%d is newer than supported v%d — upgrade the reader",
			a.Version, ArtifactVersion)
	}
	if fp := Fingerprint(inst); a.Fingerprint != fp {
		return a, fmt.Errorf("engine: policy was trained on %q (catalog fingerprint %s) but target instance %q has fingerprint %s — refusing to replay it against a different catalog",
			a.Instance, a.Fingerprint, inst.Name, fp)
	}
	return a, nil
}

// restoreValues rebuilds the Q-table policy of a tabular artifact,
// restoring the representation it was saved from. It is the one place a
// serialized Q payload is checked.
func restoreValues(a artifact, inst *dataset.Instance) (*sarsa.Policy, error) {
	if a.Items != inst.Catalog.Len() {
		return nil, fmt.Errorf("engine: policy covers %d items, instance %q has %d", a.Items, inst.Name, inst.Catalog.Len())
	}
	if len(a.QS)+len(a.QE)+len(a.QV) > 0 {
		if a.Items <= 0 || len(a.Q) != 0 || len(a.QS) != len(a.QE) || len(a.QS) != len(a.QV) {
			return nil, fmt.Errorf("engine: corrupt %s artifact (n=%d, %d/%d/%d coordinates)",
				a.Engine, a.Items, len(a.QS), len(a.QE), len(a.QV))
		}
		q := qtable.NewWithDenseMax(a.Items, 1) // keep the trained sparse form
		for i := range a.QS {
			s, e := int(a.QS[i]), int(a.QE[i])
			if err := checkCell(&a, s, e, a.QV[i]); err != nil {
				return nil, err
			}
			q.Set(s, e, a.QV[i])
		}
		return &sarsa.Policy{Q: q, IDs: a.IDs}, nil
	}
	if a.Items <= 0 || len(a.Q) != a.Items*a.Items {
		return nil, fmt.Errorf("engine: corrupt %s artifact (n=%d, %d values)", a.Engine, a.Items, len(a.Q))
	}
	q := qtable.NewWithDenseMax(a.Items, a.Items) // keep the saved dense form
	for s := 0; s < a.Items; s++ {
		for e := 0; e < a.Items; e++ {
			v := a.Q[s*a.Items+e]
			if err := checkCell(&a, s, e, v); err != nil {
				return nil, err
			}
			q.Set(s, e, v)
		}
	}
	return &sarsa.Policy{Q: q, IDs: a.IDs}, nil
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
