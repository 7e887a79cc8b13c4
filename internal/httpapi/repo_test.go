// Acceptance tests for the durable policy tier: restart without
// retraining, boot-time quarantine of corrupt artifacts, and the
// cross-process claim protocol driven through two Servers sharing one
// repository directory (the in-process stand-in for two rlplannerd
// replicas — the repository's lock files do not care which process the
// competing handles live in).
package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rlplanner/rlplanner"
)

// repoPlanReq is the one policy every test in this file trains: small
// enough to train in milliseconds, real enough to serialize.
var repoPlanReq = map[string]interface{}{
	"instance": "Univ-1 M.S. CS", "engine": "sarsa", "episodes": 60, "seed": 3,
}

func repoMetrics(t *testing.T, baseURL string) map[string]int64 {
	t.Helper()
	var m map[string]int64
	if code := doJSON(t, "GET", baseURL+"/api/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	return m
}

// TestRepoRestartWithoutRetrain is the durability acceptance test: a
// server trains into its -policy-dir, a brand-new server on the same
// directory serves the same request from the repository — repo_hits
// counts it, and the training hook never fires.
func TestRepoRestartWithoutRetrain(t *testing.T) {
	dir := t.TempDir()

	a := New(WithPolicyDir(dir))
	var trainedA atomic.Int64
	a.onTrain = func(string) { trainedA.Add(1) }
	tsA := httptest.NewServer(a.Handler())
	var plan map[string]interface{}
	if code := doJSON(t, "POST", tsA.URL+"/api/plan", repoPlanReq, &plan); code != 200 {
		t.Fatalf("cold plan status %d", code)
	}
	if got := trainedA.Load(); got != 1 {
		t.Fatalf("cold boot trained %d times, want 1", got)
	}
	ma := repoMetrics(t, tsA.URL)
	if ma["repo_writes"] < 1 {
		t.Fatalf("repo_writes = %d after training, want >= 1", ma["repo_writes"])
	}
	if ma["repo_misses"] < 1 {
		t.Fatalf("repo_misses = %d on a cold directory, want >= 1", ma["repo_misses"])
	}
	tsA.Close()

	// "Restart": a fresh Server (fresh memory LRU, fresh counters) on the
	// same directory. The plan must come off disk, not out of a trainer.
	b := New(WithPolicyDir(dir))
	var trainedB atomic.Int64
	b.onTrain = func(string) { trainedB.Add(1) }
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	if code := doJSON(t, "POST", tsB.URL+"/api/plan", repoPlanReq, &plan); code != 200 {
		t.Fatalf("warm plan status %d", code)
	}
	if got := trainedB.Load(); got != 0 {
		t.Fatalf("warm boot trained %d times, want 0", got)
	}
	mb := repoMetrics(t, tsB.URL)
	if mb["repo_hits"] < 1 {
		t.Fatalf("repo_hits = %d after warm boot, want >= 1", mb["repo_hits"])
	}
	// The repo hit filled the memory LRU: a repeat request is a pure
	// cache hit and leaves the repository counters alone.
	if code := doJSON(t, "POST", tsB.URL+"/api/plan", repoPlanReq, &plan); code != 200 {
		t.Fatalf("repeat plan status %d", code)
	}
	if again := repoMetrics(t, tsB.URL); again["repo_hits"] != mb["repo_hits"] {
		t.Fatalf("repeat plan consulted the repository: repo_hits %d -> %d",
			mb["repo_hits"], again["repo_hits"])
	}
}

// repoPlanIDs plans req on ts and returns the served item ids.
func repoPlanIDs(t *testing.T, ts *httptest.Server, req map[string]interface{}) []string {
	t.Helper()
	var plan rlplanner.Plan
	if code := doJSON(t, "POST", ts.URL+"/api/plan", req, &plan); code != 200 {
		t.Fatalf("plan %v: status %d", req, code)
	}
	return plan.IDs()
}

// TestRepoImportWritesThrough: a policy imported on one server reaches
// the repository, so a server restarted on the same directory serves the
// imported artifact — same plan, no training — instead of replacing it
// with a freshly trained one.
func TestRepoImportWritesThrough(t *testing.T) {
	// The artifact comes from a memory-only server under options that
	// differ from the import key's defaults, so only the repository can
	// hand server B these values.
	src := httptest.NewServer(New().Handler())
	defer src.Close()
	resp, err := http.Post(src.URL+"/api/policies/export", "application/json",
		strings.NewReader(`{"instance": "Univ-1 M.S. CS", "engine": "sarsa", "episodes": 60, "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	_, err = artifact.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("export: status %d, %v", resp.StatusCode, err)
	}

	dir := t.TempDir()
	tsA := httptest.NewServer(New(WithPolicyDir(dir)).Handler())
	resp, err = http.Post(tsA.URL+"/api/policies/import?instance="+url.QueryEscape("Univ-1 M.S. CS"),
		"application/octet-stream", &artifact)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("import status %d", resp.StatusCode)
	}
	imported := map[string]interface{}{"instance": "Univ-1 M.S. CS", "engine": "sarsa"}
	want := repoPlanIDs(t, tsA, imported)
	if m := repoMetrics(t, tsA.URL); m["repo_writes"] != 1 {
		t.Fatalf("repo_writes = %d after import, want 1", m["repo_writes"])
	}
	tsA.Close()

	b := New(WithPolicyDir(dir))
	var trainedB atomic.Int64
	b.onTrain = func(string) { trainedB.Add(1) }
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	if got := repoPlanIDs(t, tsB, imported); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted server plans %v, want the imported %v", got, want)
	}
	if got := trainedB.Load(); got != 0 {
		t.Fatalf("restarted server trained %d times, want 0", got)
	}
}

// TestRepoDeriveWritesThrough: a policy derived through
// POST /api/policies/{id}/derive reaches the repository like a trained
// one, so a restarted server serves it without training.
func TestRepoDeriveWritesThrough(t *testing.T) {
	dir := t.TempDir()
	tsA := httptest.NewServer(New(WithPolicyDir(dir)).Handler())
	repoPlanIDs(t, tsA, repoPlanReq)
	srcKey := planRequest{Instance: "Univ-1 M.S. CS", Engine: "sarsa", Episodes: 60, Seed: 3}.policyKey("sarsa")
	target := map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT", "engine": "sarsa", "episodes": 60, "seed": 3,
	}
	var info deriveInfo
	if code := doJSON(t, "POST", tsA.URL+"/api/policies/"+url.PathEscape(srcKey)+"/derive", target, &info); code != 201 {
		t.Fatalf("derive status %d", code)
	}
	want := repoPlanIDs(t, tsA, target)
	tsA.Close()

	b := New(WithPolicyDir(dir))
	var trainedB atomic.Int64
	b.onTrain = func(string) { trainedB.Add(1) }
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	if got := repoPlanIDs(t, tsB, target); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted server plans %v, want the derived %v", got, want)
	}
	if got := trainedB.Load(); got != 0 {
		t.Fatalf("restarted server trained %d times, want 0", got)
	}
}

// TestRepoCorruptArtifactQuarantinedAtBoot flips a byte in a stored
// artifact between runs: the next boot's warm scan must quarantine the
// entry to *.bad (never crash), report it in repo_quarantined_total,
// and the request must retrain cleanly.
func TestRepoCorruptArtifactQuarantinedAtBoot(t *testing.T) {
	dir := t.TempDir()
	a := New(WithPolicyDir(dir))
	tsA := httptest.NewServer(a.Handler())
	var plan map[string]interface{}
	if code := doJSON(t, "POST", tsA.URL+"/api/plan", repoPlanReq, &plan); code != 200 {
		t.Fatalf("cold plan status %d", code)
	}
	tsA.Close()

	pols, err := filepath.Glob(filepath.Join(dir, "*.pol"))
	if err != nil || len(pols) != 1 {
		t.Fatalf("Glob(*.pol) = %v, %v; want exactly one entry", pols, err)
	}
	raw, err := os.ReadFile(pols[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0xFF
	if err := os.WriteFile(pols[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b := New(WithPolicyDir(dir))
	var trainedB atomic.Int64
	b.onTrain = func(string) { trainedB.Add(1) }
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	if got := b.repoStats().Quarantined; got != 1 {
		t.Fatalf("boot scan quarantined %d entries, want 1", got)
	}
	bads, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
	if len(bads) != 1 {
		t.Fatalf("quarantine left %v, want one *.bad file", bads)
	}
	if code := doJSON(t, "POST", tsB.URL+"/api/plan", repoPlanReq, &plan); code != 200 {
		t.Fatalf("post-quarantine plan status %d", code)
	}
	if got := trainedB.Load(); got != 1 {
		t.Fatalf("post-quarantine trained %d times, want 1 (retrain the lost key)", got)
	}
	if m := repoMetrics(t, tsB.URL); m["repo_quarantined_total"] != 1 {
		t.Fatalf("repo_quarantined_total = %d, want 1", m["repo_quarantined_total"])
	}
}

// TestRepoTwoServersExactlyOneTrainer races two Servers sharing one
// repository directory on the same cold key from many goroutines: the
// claim protocol must elect exactly one trainer fleet-wide; everyone
// else serves the winner's artifact.
func TestRepoTwoServersExactlyOneTrainer(t *testing.T) {
	dir := t.TempDir()
	var trained atomic.Int64
	newReplica := func() *httptest.Server {
		s := New(WithPolicyDir(dir))
		s.onTrain = func(string) { trained.Add(1) }
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	tsA, tsB := newReplica(), newReplica()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		ts := tsA
		if i%2 == 1 {
			ts = tsB
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var plan map[string]interface{}
			if code := doJSON(t, "POST", ts.URL+"/api/plan", repoPlanReq, &plan); code != 200 {
				t.Errorf("plan status %d", code)
			}
		}()
	}
	wg.Wait()
	if got := trained.Load(); got != 1 {
		t.Fatalf("two replicas trained %d times, want exactly 1", got)
	}
	// Whichever replica lost the claim went through the repository: the
	// directory holds exactly the one artifact.
	if pols, _ := filepath.Glob(filepath.Join(dir, "*.pol")); len(pols) != 1 {
		t.Fatalf("directory holds %v, want one artifact", pols)
	}
}

// TestRepoStaleLeaseTakeover plants a lock file owned by a dead process
// (pid 0) under the key a request is about to train: the claim protocol
// must break the stale lease and train instead of waiting forever.
func TestRepoStaleLeaseTakeover(t *testing.T) {
	dir := t.TempDir()
	s := New(WithPolicyDir(dir))
	var trained atomic.Int64
	s.onTrain = func(string) { trained.Add(1) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := planRequest{Instance: "Univ-1 M.S. CS", Engine: "sarsa", Episodes: 60, Seed: 3}
	_, _, rk, ok := s.tier.resolve(req.policyKey("sarsa"))
	if !ok {
		t.Fatal("tier could not resolve the test key")
	}
	lock := s.repo.Path(rk) + ".lock"
	if err := os.WriteFile(lock, []byte("pid 0\nstart 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var plan map[string]interface{}
	if code := doJSON(t, "POST", ts.URL+"/api/plan", repoPlanReq, &plan); code != 200 {
		t.Fatalf("plan status %d", code)
	}
	if got := trained.Load(); got != 1 {
		t.Fatalf("trained %d times after breaking the stale lease, want 1", got)
	}
	if _, err := os.Stat(lock); !os.IsNotExist(err) {
		t.Fatalf("stale lock still present after takeover: %v", err)
	}
}

// TestPreload boots from a manifest: every listed request is resolved
// through the full policy path (training on a cold directory, the
// repository on a warm one), entries fail independently, and a second
// replica preloading the same manifest from the same directory trains
// nothing.
func TestPreload(t *testing.T) {
	dir := t.TempDir()
	manifest := `[
		{"instance": "Univ-1 M.S. CS", "engine": "sarsa", "episodes": 60, "seed": 3},
		{"instance": "no-such-program", "engine": "sarsa"},
		{"instance": "Univ-1 M.S. DS-CT", "engine": "sarsa", "episodes": 60, "seed": 3}
	]`

	a := New(WithPolicyDir(dir), WithAutoDerive(false))
	var trainedA atomic.Int64
	a.onTrain = func(string) { trainedA.Add(1) }
	n, err := a.Preload(context.Background(), strings.NewReader(manifest))
	if n != 2 {
		t.Fatalf("cold preload loaded %d, want 2", n)
	}
	if err == nil || !strings.Contains(err.Error(), "no-such-program") {
		t.Fatalf("cold preload error = %v, want the bad entry reported", err)
	}
	if got := trainedA.Load(); got != 2 {
		t.Fatalf("cold preload trained %d, want 2", got)
	}

	b := New(WithPolicyDir(dir), WithAutoDerive(false))
	var trainedB atomic.Int64
	b.onTrain = func(string) { trainedB.Add(1) }
	if n, _ = b.Preload(context.Background(), strings.NewReader(manifest)); n != 2 {
		t.Fatalf("warm preload loaded %d, want 2", n)
	}
	if got := trainedB.Load(); got != 0 {
		t.Fatalf("warm preload trained %d, want 0 (repository has both)", got)
	}
	// The preloaded policies are live in memory: serving them touches
	// neither a trainer nor the repository again.
	ts := httptest.NewServer(b.Handler())
	defer ts.Close()
	hits := b.repoStats().Hits
	var plan map[string]interface{}
	if code := doJSON(t, "POST", ts.URL+"/api/plan", repoPlanReq, &plan); code != 200 {
		t.Fatalf("post-preload plan status %d", code)
	}
	if trainedB.Load() != 0 || b.repoStats().Hits != hits {
		t.Fatal("post-preload plan was not a pure memory hit")
	}
}

// TestParsePolicyKeyRoundTrip pins parsePolicyKey as the exact inverse
// of planRequest.policyKey, including instance names that themselves
// contain the separator.
func TestParsePolicyKeyRoundTrip(t *testing.T) {
	reqs := []planRequest{
		{Instance: "Univ-1 M.S. CS", Engine: "sarsa"},
		{Instance: "Univ-1 M.S. CS", Engine: "sarsa", Episodes: 90, Seed: 7, Start: "CS 500", MinSim: true, Time: 1.5, Distance: 12.25},
		{Instance: "odd|name|catalog", Engine: "qlearning", Episodes: 3, Seed: -1},
	}
	for _, want := range reqs {
		key := want.policyKey(want.Engine)
		got, ok := parsePolicyKey(key)
		if !ok {
			t.Fatalf("parsePolicyKey(%q) failed", key)
		}
		if got != want {
			t.Fatalf("round trip of %q:\n got %+v\nwant %+v", key, got, want)
		}
	}
	for _, bad := range []string{"", "a|b", "i|e|x|0||false|0|0", strings.Repeat("|", 7)} {
		if _, ok := parsePolicyKey(bad); ok {
			t.Fatalf("parsePolicyKey(%q) accepted a malformed key", bad)
		}
	}
}

// TestPolicyKeyGolden pins the exact bytes of policy keys. Repository
// entries on disk are named by them, so a key whose bytes changed would
// orphan every stored policy. The table covers shortest-form floats in
// and out of exponent form, negative zero, both min_sim values and an
// instance name holding the separator; random requests, NaN and the
// infinities among their values, must match the format the keys were
// first written in.
func TestPolicyKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		req  planRequest
		want string
	}{
		{planRequest{Instance: "Univ-1 M.S. CS", Engine: "sarsa"},
			"Univ-1 M.S. CS|sarsa|0|0||false|0|0"},
		{planRequest{Instance: "NYC", Engine: "qlearning", Episodes: 500, Seed: -3,
			Start: "Central Park", MinSim: true, Time: 0.5, Distance: 2.5e-07},
			"NYC|qlearning|500|-3|Central Park|true|0.5|2.5e-07"},
		{planRequest{Instance: "odd|name", Engine: "sarsa", Time: 1e+21, Distance: math.Copysign(0, -1)},
			"odd|name|sarsa|0|0||false|1e+21|-0"},
		{planRequest{Instance: "Paris", Engine: "gold", Seed: math.MaxInt64, Time: 6, Distance: 12.25},
			"Paris|gold|0|9223372036854775807||false|6|12.25"},
		{planRequest{Instance: "catalog-8k", Engine: "sarsa", Episodes: 64, Seed: 5, MinSim: true,
			Time: 123456789012, Distance: 1e-05},
			"catalog-8k|sarsa|64|5||true|1.23456789012e+11|1e-05"},
	} {
		if got := tc.req.policyKey(tc.req.Engine); got != tc.want {
			t.Errorf("policyKey(%+v) = %q, want %q", tc.req, got, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		req := planRequest{
			Instance: fmt.Sprintf("inst|%d", rng.Intn(100)),
			Engine:   "sarsa",
			Episodes: rng.Intn(1<<20) - 1<<19,
			Seed:     int64(rng.Uint64()),
			Start:    fmt.Sprintf("item %d", rng.Intn(10)),
			MinSim:   rng.Intn(2) == 0,
			Time:     math.Float64frombits(rng.Uint64()),
			Distance: float64(rng.Intn(1000)) / 8,
		}
		if i%3 == 0 {
			req.Time = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[i%4]
		}
		want := fmt.Sprintf("%s|%s|%d|%d|%s|%v|%g|%g",
			req.Instance, req.Engine, req.Episodes, req.Seed, req.Start, req.MinSim, req.Time, req.Distance)
		if got := req.policyKey(req.Engine); got != want {
			t.Fatalf("policyKey(%+v) = %q, format %q", req, got, want)
		}
	}
}

// lineTripSpec is a six-POI trip, a to f, laid north along one meridian
// spacing degrees of latitude apart, under a 3 km distance threshold.
// Specs built with different spacings differ only in their coordinates.
func lineTripSpec(name string, spacing float64) rlplanner.InstanceSpec {
	spec := rlplanner.InstanceSpec{
		Name: name, Kind: "trip", Credits: 6, Primary: 2, Secondary: 3, Gap: 1,
		MaxDistanceKm: 3, DefaultStart: "a",
	}
	for i := 0; i < 6; i++ {
		theme := fmt.Sprintf("theme-%d", i)
		typ := "secondary"
		if i < 2 {
			typ = "primary"
		}
		spec.Topics = append(spec.Topics, theme)
		spec.Items = append(spec.Items, rlplanner.ItemSpec{
			ID: string(rune('a' + i)), Type: typ, Credits: 1, Topics: []string{theme},
			Lat: 48.85 + spacing*float64(i), Lon: 2.35, Popularity: 3,
		})
	}
	return spec
}

// TestRepoSeparatesSameNamedCatalogs: two servers share one policy
// directory and each uploads a trip named "X", the first "near" (POIs
// 0.22 km apart), then the second "far" (2.2 km apart), identical
// otherwise. The second server must not serve the first one's artifact:
// it trains once and plans what "far" plans on a server of its own.
func TestRepoSeparatesSameNamedCatalogs(t *testing.T) {
	dir := t.TempDir()
	req := map[string]interface{}{"instance": "X", "engine": "sarsa", "episodes": 60, "seed": 1}
	serve := func(spec rlplanner.InstanceSpec, opts ...Option) ([]string, int64) {
		t.Helper()
		s := New(opts...)
		var trained atomic.Int64
		s.onTrain = func(string) { trained.Add(1) }
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if code := doJSON(t, "POST", ts.URL+"/api/instances", spec, &struct{}{}); code != 201 {
			t.Fatalf("upload %s: status %d", spec.Name, code)
		}
		return repoPlanIDs(t, ts, req), trained.Load()
	}
	near, far := lineTripSpec("X", 0.002), lineTripSpec("X", 0.02)
	if _, n := serve(near, WithPolicyDir(dir)); n != 1 {
		t.Fatalf(`"near" trained %d times, want 1`, n)
	}
	got, n := serve(far, WithPolicyDir(dir))
	if n != 1 {
		t.Fatalf(`"far" after "near" on one policy dir trained %d times, want 1`, n)
	}
	if want, _ := serve(far); !reflect.DeepEqual(got, want) {
		t.Fatalf(`"far" after "near" plans %v, on a server of its own %v`, got, want)
	}
}
