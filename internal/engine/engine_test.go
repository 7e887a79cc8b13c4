package engine

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
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
// reproduce bit-identical recommendations from every start, for every
// engine and for both Q payloads. Saving is byte-deterministic, a loaded
// table keeps the representation it was trained in, and a loaded policy
// saves back to the bytes it was read from.
func TestArtifactRoundTrip(t *testing.T) {
	type roundTrip struct {
		name, engine string
		inst         *dataset.Instance
		denseQMax    int
	}
	var cases []roundTrip
	for _, name := range Names() {
		cases = append(cases, roundTrip{name, name, univ.Univ1DSCT(), 0})
	}
	// DenseQMax 1 forces the sparse (QS/QE/QV) payload on catalogs small
	// enough to train in a test.
	cases = append(cases,
		roundTrip{"sarsa-sparse/univ1dsct", "sarsa", univ.Univ1DSCT(), 1},
		roundTrip{"sarsa-sparse/tripNYC", "sarsa", trip.NYC().Instance, 1},
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
			opts := quick
			opts.Seed = 7
			opts.DenseQMax = tc.denseQMax
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
				dense := vp.Values().Q.IsDense()
				if dense != (tc.denseQMax == 0) {
					t.Fatalf("trained IsDense() = %v with DenseQMax %d", dense, tc.denseQMax)
				}
				if got := loaded.(ValuePolicy).Values().Q.IsDense(); got != dense {
					t.Fatalf("loaded IsDense() = %v, trained %v", got, dense)
				}
			}
			if !bytes.Equal(save(t, loaded), saved) {
				t.Fatal("loaded policy does not save back to the bytes it was read from")
			}
			for start := DefaultStart; start < tc.inst.Catalog.Len(); start++ {
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
// range, doubled or non-finite is refused by Load, in the dense (Q) and
// the sparse (QS/QE/QV) form.
func TestArtifactRejectsCorruptPayload(t *testing.T) {
	inst := univ.Univ1DSCT()
	n := inst.Catalog.Len()
	saved := map[string][]byte{"dense": savedSarsa(t, 0), "sparse": savedSarsa(t, 1)}
	for _, tc := range []struct {
		name, payload string
		corrupt       func(a *artifact)
	}{
		{"short Q", "dense", func(a *artifact) { a.Q = a.Q[:len(a.Q)-1] }},
		{"NaN Q", "dense", func(a *artifact) { fill(a.Q, math.NaN()) }},
		{"-Inf Q cell", "dense", func(a *artifact) { a.Q[len(a.Q)-1] = math.Inf(-1) }},
		{"ragged QE", "sparse", func(a *artifact) { a.QE = a.QE[:len(a.QE)-1] }},
		{"ragged QV", "sparse", func(a *artifact) { a.QV = append(a.QV, 1) }},
		{"state out of range", "sparse", func(a *artifact) { a.QS[0] = int32(n) }},
		{"negative action", "sparse", func(a *artifact) { a.QE[0] = -1 }},
		{"both Q and QS", "sparse", func(a *artifact) { a.Q = make([]float64, n*n) }},
		{"+Inf QV", "sparse", func(a *artifact) { fill(a.QV, math.Inf(1)) }},
		{"NaN QV cell", "sparse", func(a *artifact) { a.QV[0] = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a artifact
			if err := gob.NewDecoder(bytes.NewReader(saved[tc.payload])).Decode(&a); err != nil {
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

// savedSarsa returns the artifact of a sarsa policy trained on Univ-1
// DS-CT: its Q payload is dense, or sparse (QS/QE/QV) when denseQMax is 1.
func savedSarsa(tb testing.TB, denseQMax int) []byte {
	tb.Helper()
	opts := quick
	opts.DenseQMax = denseQMax
	pol, err := Train(context.Background(), "sarsa", univ.Univ1DSCT(), opts)
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
	f.Add(savedSarsa(f, 0))
	f.Add(savedSarsa(f, 1))
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

func TestArtifactRejectsNewerVersion(t *testing.T) {
	var buf bytes.Buffer
	a := artifact{Magic: artifactMagic, Version: ArtifactVersion + 1, Engine: "sarsa"}
	if err := gob.NewEncoder(&buf).Encode(a); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf, univ.Univ1DSCT(), core.Options{})
	if err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("newer version: %v", err)
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

func TestFingerprint(t *testing.T) {
	a, b := univ.Univ1DSCT(), univ.Univ2DS()
	if Fingerprint(a) != Fingerprint(a) {
		t.Fatal("fingerprint is not deterministic")
	}
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("different catalogs share a fingerprint")
	}
	if len(Fingerprint(a)) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex chars", Fingerprint(a))
	}
}
