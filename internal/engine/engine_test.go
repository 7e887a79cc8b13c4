package engine

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/qtable"
)

// quick keeps learner-based tests fast.
var quick = core.Options{Episodes: 120, Seed: 1}

func TestRegistryNames(t *testing.T) {
	want := []string{"eda", "gold", "omega", "qlearning", "sarsa", "valueiter"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestCanonicalAliases(t *testing.T) {
	cases := map[string]string{
		"":                "sarsa", // default engine
		"rl":              "sarsa",
		"SARSA":           "sarsa", // case-insensitive
		"q-learning":      "qlearning",
		"vi":              "valueiter",
		"value-iteration": "valueiter",
		"eda":             "eda",
	}
	for in, want := range cases {
		got, err := Canonical(in)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUnknownEngine(t *testing.T) {
	_, err := Train(context.Background(), "oracle", univ.Univ1DSCT(), core.Options{})
	if err == nil {
		t.Fatal("training an unknown engine should fail")
	}
	if !strings.Contains(err.Error(), "unknown engine") || !strings.Contains(err.Error(), "sarsa") {
		t.Fatalf("error should name the registry contents: %v", err)
	}
}

func TestDescribe(t *testing.T) {
	d, err := Describe("vi")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "valueiter" || !d.Tabular || d.Doc == "" {
		t.Fatalf("Describe(vi) = %+v", d)
	}
	if d, _ := Describe("gold"); d.Tabular {
		t.Fatal("gold must be procedural")
	}
}

// TestAllEnginesTrainAndRecommend proves every registered engine produces
// an immutable policy whose repeated recommendations are identical.
func TestAllEnginesTrainAndRecommend(t *testing.T) {
	inst := univ.Univ1DSCT()
	for _, name := range Names() {
		pol, err := Train(context.Background(), name, inst, quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pol.Engine() != name {
			t.Fatalf("policy engine = %q, want %q", pol.Engine(), name)
		}
		if pol.Fingerprint() != Fingerprint(inst) {
			t.Fatalf("%s: fingerprint mismatch", name)
		}
		a, err := pol.Recommend(DefaultStart)
		if err != nil {
			t.Fatalf("%s recommend: %v", name, err)
		}
		if len(a) == 0 {
			t.Fatalf("%s: empty plan", name)
		}
		b, err := pol.Recommend(DefaultStart)
		if err != nil {
			t.Fatalf("%s recommend (2nd): %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: recommendations drift between calls: %v vs %v", name, a, b)
		}
	}
}

func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Train(ctx, "sarsa", univ.Univ1DSCT(), quick); err == nil {
		t.Fatal("training under a canceled context should fail")
	}
}

// TestArtifactRoundTrip is the tentpole invariant: save → load must
// reproduce every Q cell bit for bit and bit-identical recommendations
// from every start, for every engine and for tables trained dense or
// sparse. Saving is byte-deterministic, a loaded table takes the
// representation qtable.New picks for its size, and a loaded policy
// saves back to the bytes it was read from.
func TestArtifactRoundTrip(t *testing.T) {
	type roundTrip struct {
		name, engine string
		inst         *dataset.Instance
		sparse       bool
	}
	var cases []roundTrip
	for _, name := range Names() {
		cases = append(cases, roundTrip{name, name, univ.Univ1DSCT(), false})
	}
	// A zero sparse InitQ trains a sparse table on catalogs small enough
	// to train in a test; it loads back dense, as qtable.New picks.
	cases = append(cases,
		roundTrip{"sarsa-sparse/univ1dsct", "sarsa", univ.Univ1DSCT(), true},
		roundTrip{"sarsa-sparse/tripNYC", "sarsa", trip.NYC().Instance, true},
	)
	save := func(t *testing.T, p Policy) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		return buf.Bytes()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.inst.Catalog.Len()
			opts := quick
			opts.Seed = 7
			if tc.sparse {
				opts.InitQ = qtable.NewWithDenseMax(n, 1)
			}
			pol, err := Train(context.Background(), tc.engine, tc.inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			saved := save(t, pol)
			if !bytes.Equal(saved, save(t, pol)) {
				t.Fatal("two saves of one policy differ")
			}
			loaded, err := Load(bytes.NewReader(saved), tc.inst, opts)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if loaded.Engine() != tc.engine {
				t.Fatalf("loaded engine = %q, want %q", loaded.Engine(), tc.engine)
			}
			if vp, ok := pol.(ValuePolicy); ok {
				trained := vp.Values().Q
				if trained.IsDense() == tc.sparse {
					t.Fatalf("trained IsDense() = %v, sparse InitQ %v", trained.IsDense(), tc.sparse)
				}
				got := loaded.(ValuePolicy).Values().Q
				if got.IsDense() != qtable.New(n).IsDense() {
					t.Fatalf("loaded IsDense() = %v, qtable.New(%d) picks %v", got.IsDense(), n, qtable.New(n).IsDense())
				}
				for s := 0; s < n; s++ {
					for e := 0; e < n; e++ {
						if a, b := trained.Get(s, e), got.Get(s, e); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("Q(%d,%d): loaded %v, trained %v", s, e, b, a)
						}
					}
				}
			}
			if !bytes.Equal(save(t, loaded), saved) {
				t.Fatal("loaded policy does not save back to the bytes it was read from")
			}
			for start := DefaultStart; start < n; start++ {
				want, werr := pol.Recommend(start)
				got, gerr := loaded.Recommend(start)
				if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("start %d: loaded policy recommends %v (err %v), trained one %v (err %v)",
						start, got, gerr, want, werr)
				}
			}
		})
	}
}

// TestArtifactRejectsCorruptPayload: a Q payload that is ragged, out of
// range or non-finite is refused by Load.
func TestArtifactRejectsCorruptPayload(t *testing.T) {
	inst := univ.Univ1DSCT()
	n := inst.Catalog.Len()
	saved := savedPolicy(t, "sarsa")
	for _, tc := range []struct {
		name    string
		corrupt func(a *artifact)
	}{
		{"ragged QE", func(a *artifact) { a.QE = a.QE[:len(a.QE)-1] }},
		{"ragged QV", func(a *artifact) { a.QV = append(a.QV, 1) }},
		{"state out of range", func(a *artifact) { a.QS[0] = int32(n) }},
		{"negative action", func(a *artifact) { a.QE[0] = -1 }},
		{"+Inf QV", func(a *artifact) { fill(a.QV, math.Inf(1)) }},
		{"NaN QV cell", func(a *artifact) { a.QV[0] = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a artifact
			if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&a); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(&a)
			var buf bytes.Buffer
			if err := saveArtifact(&buf, a); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(bytes.NewReader(buf.Bytes()), inst, quick); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("Load: %v, want a corrupt-artifact error", err)
			}
		})
	}
}

func fill(vs []float64, v float64) {
	for i := range vs {
		vs[i] = v
	}
}

// savedPolicy returns the artifact of an engine's policy trained on
// Univ-1 DS-CT.
func savedPolicy(tb testing.TB, engine string) []byte {
	tb.Helper()
	pol, err := Train(context.Background(), engine, univ.Univ1DSCT(), quick)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadArtifact: Load reads untrusted bytes (POST /api/policies/import,
// a shared -policy-dir). Whatever the input, it returns an error or a
// policy whose Recommend(DefaultStart) returns without panicking.
func FuzzLoadArtifact(f *testing.F) {
	inst := univ.Univ1DSCT()
	f.Add(savedPolicy(f, "sarsa"))
	f.Add(savedPolicy(f, "valueiter"))
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pol, err := Load(bytes.NewReader(data), inst, quick)
		if err != nil {
			return
		}
		_, _ = pol.Recommend(DefaultStart)
	})
}

func TestArtifactRejectsGarbage(t *testing.T) {
	_, err := Load(strings.NewReader("not a gob stream"), univ.Univ1DSCT(), core.Options{})
	if err == nil || !strings.Contains(err.Error(), "decode policy artifact") {
		t.Fatalf("garbage input: %v", err)
	}
}

func TestArtifactRejectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(artifact{Magic: "someone-elses-format"}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf, univ.Univ1DSCT(), core.Options{})
	if err == nil || !strings.Contains(err.Error(), "not an RL-Planner policy artifact") {
		t.Fatalf("wrong magic: %v", err)
	}
}

// TestArtifactRejectsNewerVersion: Load reads only ArtifactVersion. An
// older artifact names its catalog by a coarser fingerprint, and a newer
// one by a format this reader does not know; both are refused with an
// error naming both versions.
func TestArtifactRejectsNewerVersion(t *testing.T) {
	for _, v := range []int{ArtifactVersion - 1, ArtifactVersion + 1} {
		var buf bytes.Buffer
		a := artifact{Magic: artifactMagic, Version: v, Engine: "sarsa"}
		if err := gob.NewEncoder(&buf).Encode(a); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf, univ.Univ1DSCT(), core.Options{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format v%d,", v)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("reads only v%d", ArtifactVersion)) {
			t.Fatalf("artifact v%d: %v", v, err)
		}
	}
}

func TestArtifactRejectsFingerprintMismatch(t *testing.T) {
	trained := univ.Univ1DSCT()
	pol, err := Train(context.Background(), "sarsa", trained, quick)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf, univ.Univ2DS(), core.Options{})
	if err == nil || !strings.Contains(err.Error(), "different catalog") {
		t.Fatalf("fingerprint mismatch: %v", err)
	}
	if !strings.Contains(err.Error(), trained.Name) {
		t.Fatalf("error should name the training instance: %v", err)
	}
}

// TestArtifactRejectsMovedCoordinates: two uploads under one name whose
// catalogs differ only in coordinates are different catalogs. A policy
// trained on one walks distances the other does not have, so Load of
// its artifact against the other is refused.
func TestArtifactRejectsMovedCoordinates(t *testing.T) {
	near, far := lineTrip(t, "X", 0.002), lineTrip(t, "X", 0.02)
	pol, err := Train(context.Background(), "sarsa", near, core.Options{MaxDistanceKm: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	art := buf.Bytes()
	if _, err := Load(bytes.NewReader(art), near, core.Options{MaxDistanceKm: 3}); err != nil {
		t.Fatalf("load onto the training catalog: %v", err)
	}
	_, err = Load(bytes.NewReader(art), far, core.Options{MaxDistanceKm: 3})
	if err == nil || !strings.Contains(err.Error(), "different catalog") {
		t.Fatalf(`load of "near"'s artifact onto "far": %v, want a different-catalog error`, err)
	}
}

// TestFingerprint: a policy's catalog identity is the instance's content
// digest, so it separates catalogs that differ only in coordinates and
// ignores the instance name.
func TestFingerprint(t *testing.T) {
	insts := append(append(univ.Univ1All(), univ.Univ2DS()), trip.Instances()...)
	seen := map[string]string{}
	for _, inst := range insts {
		fp := Fingerprint(inst)
		if fp != inst.Digest() {
			t.Fatalf("%s: Fingerprint %s, Digest %s", inst.Name, fp, inst.Digest())
		}
		if other, dup := seen[fp]; dup {
			t.Fatalf("%s and %s share fingerprint %s", inst.Name, other, fp)
		}
		seen[fp] = inst.Name
	}
	near, far := lineTrip(t, "X", 0.002), lineTrip(t, "X", 0.02)
	if Fingerprint(near) == Fingerprint(far) {
		t.Fatal("catalogs that differ only in coordinates share a fingerprint")
	}
	if Fingerprint(far) != Fingerprint(lineTrip(t, "far", 0.02)) {
		t.Fatal("the instance name changed the fingerprint")
	}
}
