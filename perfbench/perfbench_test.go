package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/rlplanner/rlplanner"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{0.1, 1.4}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

func TestSliced(t *testing.T) {
	seq := func(lo, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(lo + i)
		}
		return out
	}
	var all []float64
	flat := func(xs [][]float64) []float64 {
		all = all[:0]
		for _, s := range xs {
			all = append(all, s...)
		}
		return all
	}

	// A slow slice moves only its own group: each slice of 100 holds ten
	// samples beyond its p90.
	xs := make([][]float64, 10)
	for i := range xs {
		xs[i] = seq(1, 100)
	}
	xs[3] = seq(1001, 100)
	if got, want := sliced(xs, 0.9), quantile(seq(1, 100), 0.9); got != want {
		t.Errorf("one slow slice: sliced p90 = %v, want %v", got, want)
	}
	if whole := quantile(flat(xs), 0.9); whole <= 100 {
		t.Errorf("the whole run's p90 %v should show the slow slice", whole)
	}

	// Slices of 50 are joined in pairs to hold 100 samples each.
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = nil
		for range 50 {
			xs[i] = append(xs[i], rng.Float64())
		}
	}
	var groups []float64
	for g := 0; g < 10; g += 2 {
		groups = append(groups, quantile(append(append([]float64(nil), xs[g]...), xs[g+1]...), 0.9))
	}
	if got, want := sliced(xs, 0.9), median(groups); got != want {
		t.Errorf("pairs: sliced p90 = %v, want %v", got, want)
	}
	// The median needs 20 samples a group, so each slice is its own.
	var meds []float64
	for _, s := range xs {
		meds = append(meds, median(s))
	}
	if got, want := sliced(xs, 0.5), median(meds); got != want {
		t.Errorf("slices: sliced p50 = %v, want %v", got, want)
	}

	// Too few samples for two groups: the quantile of all of them, empty
	// slices included.
	xs = [][]float64{seq(1, 30), nil, seq(100, 30), nil, nil, nil, nil, nil, nil, nil}
	if got, want := sliced(xs, 0.9), quantile(flat(xs), 0.9); got != want {
		t.Errorf("few samples: sliced p90 = %v, want %v", got, want)
	}
}

func TestLatencies(t *testing.T) {
	var l latencies
	const n = 2*chunkLen + 7
	for i := range n {
		l.add(time.Duration(i) * time.Microsecond)
	}
	got := l.release(time.Millisecond)
	if len(got) != n {
		t.Fatalf("released %d latencies, want %d", len(got), n)
	}
	for i, v := range got {
		if want := float64(i) / 1000; math.Abs(v-want) > 1e-9 {
			t.Fatalf("latency %d = %v ms, want %v", i, v, want)
		}
	}
	if l.n != 0 || l.chunks != nil {
		t.Errorf("release left %d latencies in %d chunks", l.n, len(l.chunks))
	}
	if got := l.release(time.Millisecond); len(got) != 0 {
		t.Errorf("a released record yields %d latencies", len(got))
	}
}

func sp(id, parent int, start, end time.Duration) span {
	return span{id: id, parent: parent, start: start, end: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, 10, 110)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"leaf", nil, 100},
		{"nested", []span{sp(2, 1, 20, 50), sp(3, 1, 60, 70)}, 60},
		{"overlapping children count once", []span{sp(2, 1, 20, 60), sp(3, 1, 40, 80)}, 40},
		{"child inside a child", []span{sp(2, 1, 20, 80), sp(3, 1, 30, 40)}, 40},
		{"touching children", []span{sp(2, 1, 20, 40), sp(3, 1, 40, 60)}, 60},
		{"clipped to the parent", []span{sp(2, 1, 0, 30), sp(3, 1, 100, 150)}, 70},
		{"outside the parent", []span{sp(2, 1, 120, 150)}, 100},
		{"covers the parent", []span{sp(2, 1, 0, 200)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestReplayLayout checks that replayed spans are laid end to end from
// their parent's start, nest under replayed parents, and that self time
// then subtracts direct children only.
func TestReplayLayout(t *testing.T) {
	tr := newTracer()
	root := tr.open(1, 0, "op")
	serve := tr.record(1, root, "serve", 1000, 2000)
	a := tr.replay(serve, "a", func() { time.Sleep(2 * time.Millisecond) })
	b := tr.replay(serve, "b", func() {})
	inner := tr.replay(a, "a.inner", func() {})
	tr.close(root)

	sa, sb, si := tr.span(a), tr.span(b), tr.span(inner)
	if sa.start != 1000 || sb.start != sa.end || si.start != sa.start {
		t.Fatalf("layout: serve [1000,2000) a %v-%v b %v-%v inner %v-%v",
			sa.start, sa.end, sb.start, sb.end, si.start, si.end)
	}
	kids := tr.children()
	if len(kids[serve]) != 2 || len(kids[a]) != 1 || kids[a][0].name != "a.inner" {
		t.Fatalf("children: %v", kids)
	}
	// a runs past the 1000ns handler span, so the handler has no self
	// time left, while a keeps what its own child does not cover.
	if got := selfTime(tr.span(serve), kids[serve]); got != 0 {
		t.Errorf("serve self = %v, want 0", got)
	}
	if got, want := selfTime(sa, kids[a]), sa.dur()-si.dur(); got != want {
		t.Errorf("a self = %v, want %v", got, want)
	}
}

// served renders a library plan as the HTTP layer serves it.
func served(t *testing.T, p *rlplanner.Plan, by string, degraded bool) *servedPlan {
	t.Helper()
	body, err := json.Marshal(struct {
		*rlplanner.Plan
		ServedBy string `json:"served_by"`
		Degraded bool   `json:"degraded"`
	}{p, by, degraded})
	if err != nil {
		t.Fatal(err)
	}
	ps, starts, err := plans(opPlan, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || starts[0] != "" {
		t.Fatalf("plans() = %v, %v", ps, starts)
	}
	return ps[0]
}

func TestCheckPlan(t *testing.T) {
	in, err := rlplanner.InstanceByName("NYC")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := rlplanner.Train(context.Background(), in, "sarsa", rlplanner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pol.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlan(served(t, want, "sarsa", false), want); err != nil {
		t.Fatalf("identical plan: %v", err)
	}

	other := *want
	other.Steps = append([]rlplanner.PlanStep(nil), want.Steps...)
	other.Steps[0], other.Steps[1] = other.Steps[1], other.Steps[0]
	if err := checkPlan(served(t, &other, "sarsa", false), want); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("reordered plan: err = %v, want a mismatch", err)
	}
	rescored := *want
	rescored.Score += 1e-9
	if err := checkPlan(served(t, &rescored, "sarsa", false), want); err == nil {
		t.Error("plan with another score passed")
	}
	if err := checkPlan(served(t, want, "gold", false), want); err == nil {
		t.Error("plan from the fallback engine passed")
	}
	if err := checkPlan(served(t, want, "sarsa", true), want); err == nil {
		t.Error("degraded plan passed")
	}
}

func TestPlansRejectsFailedBatchItemsAndBadJSON(t *testing.T) {
	body := `{"instance":"NYC","engine":"sarsa","items":[{"start":"x","error":"unknown item","status":400}],"errors":1}`
	if _, _, err := plans(opBatch, []byte(body)); err == nil {
		t.Error("batch with a failed item decoded without error")
	}
	if _, _, err := plans(opPlan, []byte(`{"Steps":`)); err == nil {
		t.Error("truncated plan decoded without error")
	}
}
