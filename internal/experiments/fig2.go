package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/stats"
)

// Fig2Point is one measurement of the scalability study (§IV-F): time to
// learn a policy and time to recommend a plan, for one episode count N.
type Fig2Point struct {
	Instance  string
	Episodes  int
	Learn     time.Duration
	Recommend time.Duration
}

// Fig2 reproduces Figure 2: learning time grows linearly with the number
// of episodes (panels a and c) while recommendation stays interactive
// (panels b and d). Course planning uses Univ-1 DS-CT; trip planning uses
// NYC.
func Fig2(cfg Config) ([]Fig2Point, error) {
	cfg = cfg.withDefaults()
	episodes := []int{100, 200, 300, 500, 1000}
	instances := []*dataset.Instance{univ.Univ1DSCT(), trip.NYC().Instance}

	ctx := context.Background()
	var out []Fig2Point
	for _, inst := range instances {
		// N is not part of the environment: build it once, outside the
		// timed runs.
		if _, err := engine.EnvFor(ctx, inst, core.Options{Seed: cfg.BaseSeed}); err != nil {
			return nil, err
		}
		for _, n := range episodes {
			t0 := time.Now()
			pol, err := engine.Train(ctx, "sarsa", inst, core.Options{Episodes: n, Seed: cfg.BaseSeed})
			if err != nil {
				return nil, err
			}
			learn := time.Since(t0)

			t0 = time.Now()
			if _, err := pol.Recommend(engine.DefaultStart); err != nil {
				return nil, err
			}
			rec := time.Since(t0)

			out = append(out, Fig2Point{
				Instance: inst.Name, Episodes: n,
				Learn: learn, Recommend: rec,
			})
		}
	}
	return out, nil
}

// Fig2Table renders the measurements.
func Fig2Table(points []Fig2Point) *stats.Table {
	t := &stats.Table{
		Title:  "Fig 2: scalability (learning scales linearly in N; recommendation is interactive)",
		Header: []string{"Instance", "N", "Learn", "Recommend"},
	}
	for _, p := range points {
		t.AddRow(p.Instance, fmt.Sprintf("%d", p.Episodes),
			p.Learn.Round(time.Microsecond).String(),
			p.Recommend.Round(time.Microsecond).String())
	}
	return t
}
