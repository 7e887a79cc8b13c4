package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/rlplanner/rlplanner"
)

// servedPlan is the JSON shape of one served plan: the library's Plan
// plus the provenance fields the HTTP layer adds.
type servedPlan struct {
	rlplanner.Plan
	ServedBy       string `json:"served_by"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Personalized   bool   `json:"personalized,omitempty"`
}

// servedBatch is the JSON shape of a /api/plan/batch response.
type servedBatch struct {
	Instance string `json:"instance"`
	Engine   string `json:"engine"`
	Items    []struct {
		Start  string      `json:"start"`
		Plan   *servedPlan `json:"plan,omitempty"`
		Error  string      `json:"error,omitempty"`
		Status int         `json:"status,omitempty"`
	} `json:"items"`
	Errors int `json:"errors"`
}

// plans decodes a plan or batch response body into its served plans and
// their walk starts ("" for /api/plan, which walks from the trained
// start). A batch item that carries an error is an error here: every
// workload is chosen so that no operation fails.
func plans(kind opKind, body []byte) ([]*servedPlan, []string, error) {
	if kind == opPlan {
		var p servedPlan
		if err := json.Unmarshal(body, &p); err != nil {
			return nil, nil, fmt.Errorf("decode plan response: %w", err)
		}
		return []*servedPlan{&p}, []string{""}, nil
	}
	var b servedBatch
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, nil, fmt.Errorf("decode batch response: %w", err)
	}
	out := make([]*servedPlan, len(b.Items))
	starts := make([]string, len(b.Items))
	for i, it := range b.Items {
		if it.Plan == nil {
			return nil, nil, fmt.Errorf("batch item %q: HTTP %d: %s", it.Start, it.Status, it.Error)
		}
		out[i], starts[i] = it.Plan, it.Start
	}
	return out, starts, nil
}

// checkPlan reports whether a served plan is exactly the plan the
// library's own Policy.Recommend produced for the same key and start:
// the same steps, score, validity and violations, served by the
// requested engine without degradation.
func checkPlan(got *servedPlan, want *rlplanner.Plan) error {
	if got.ServedBy != "sarsa" {
		return fmt.Errorf("served by %q, want sarsa", got.ServedBy)
	}
	if got.Degraded {
		return fmt.Errorf("served degraded: %s", got.DegradedReason)
	}
	g, err := json.Marshal(&got.Plan)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("plan mismatch: served [%s] score %g valid %v, library [%s] score %g valid %v",
			strings.Join(got.IDs(), " "), got.Score, got.SatisfiesConstraints,
			strings.Join(want.IDs(), " "), want.Score, want.SatisfiesConstraints)
	}
	return nil
}

// quality accumulates plan score and Theorem-1 validity.
type quality struct {
	n, valid int
	score    float64
}

func (q *quality) add(p *rlplanner.Plan) {
	q.n++
	q.score += p.Score
	if p.SatisfiesConstraints {
		q.valid++
	}
}

func (q quality) scoreMean() float64 { return ratio(q.score, float64(q.n)) }
func (q quality) validFrac() float64 { return ratio(float64(q.valid), float64(q.n)) }
