package mdp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// TestFastPathsMatchReference pins the episode's shortcuts to their
// definitions. Reward skips the Transition, reads the r2 gate before
// the r1 popcount and takes the similarity term scored once per type
// per step; CanStep skips the leg lookup while the distance budget
// cannot bind; RewardLevels gives every open item's reward per reward
// group. Random walks, which now and then step past a candidate filter
// to overrun the budget, compare every item at every step with
// Equation 2 evaluated on the full Transition (bit for bit), with
// CanStep's definition over env.Dist and, under the multiplicative
// gate, with its group's level (θ open) or 0 (θ closed).
func TestFastPathsMatchReference(t *testing.T) {
	type envCase struct {
		name string
		inst *dataset.Instance
		opts core.Options
		// binds requires the walks to meet a leg the budget refuses.
		binds bool
		walks int
	}
	var cases []envCase
	// Every built-in instance: Univ-2 brings category weights, the trips
	// bring popularity scaling, the theme gap and a distance threshold.
	builtins := append(univ.Univ1All(), univ.Univ2DS())
	builtins = append(builtins, trip.Instances()...)
	for _, inst := range builtins {
		for _, mode := range []seqsim.Mode{seqsim.Average, seqsim.Minimum, seqsim.LevenshteinAverage} {
			for _, soft := range []bool{false, true} {
				cases = append(cases, envCase{
					name: fmt.Sprintf("%s/%v/soft=%v", inst.Name, mode, soft),
					inst: inst,
					opts: core.Options{Sim: mode, HasSim: true, SoftThetaGate: soft},
				})
			}
		}
	}
	// Synthetic geo catalogs over every distance-store tier, each with a
	// budget no leg can fail, one that binds within a walk, and one equal
	// to the store's leg ceiling. On the city-scale maps the ceiling
	// budget never binds; on the globe, where every point's antipode is
	// in the catalog, it binds as soon as the walk has moved at all.
	geoCases := func(name string, inst *dataset.Instance, binding float64, walks int) {
		pts := make([]geo.Point, inst.Catalog.Len())
		for i := range pts {
			m := inst.Catalog.At(i)
			pts[i] = geo.Point{Lat: m.Lat, Lon: m.Lon}
		}
		ceiling := geo.NewDistStore(pts).MaxDist()
		for _, budget := range []float64{1e6, binding, ceiling} {
			cases = append(cases, envCase{
				name:  fmt.Sprintf("%s/budget=%g", name, budget),
				inst:  inst,
				opts:  core.Options{MaxDistanceKm: budget},
				binds: budget == binding || (budget == ceiling && walks > 3),
				walks: walks,
			})
		}
	}
	for _, n := range []int{300, geo.DefaultDistMatrixMaxItems + 76, geo.DefaultExactHaversineMaxItems + 104} {
		inst, err := synth.Generate(synth.Params{Items: n, Geo: true, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		geoCases(fmt.Sprintf("synth-%d", n), inst, 40, 3)
	}
	geoCases("globe-40", globeInstance(t, 40), 15000, 40)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, err := core.BuildEnv(tc.inst, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			walks := tc.walks
			if walks == 0 {
				walks = 3
			}
			refused := checkFastPaths(t, env, walks, rand.New(rand.NewSource(int64(env.NumItems()))))
			if tc.binds && refused == 0 {
				t.Error("the distance budget never refused a leg")
			}
		})
	}
}

// checkFastPaths walks random episodes on env and compares Reward and
// CanStep with their references for every item at every step. It
// returns how many times the distance budget alone refused an item.
func checkFastPaths(t *testing.T, env *mdp.Env, walks int, rng *rand.Rand) (refused int) {
	t.Helper()
	n := env.NumItems()
	cfg := env.RewardConfig()
	maxKm := env.Hard().MaxDistanceKm
	canStep := func(ep *mdp.Episode, chosen []bool, i int) bool {
		if chosen[i] || !env.Budget().Allows(ep.Credits(), ep.Len(), env.Catalog().At(i).Credits) {
			return false
		}
		if maxKm > 0 && ep.Distance()+env.Dist(ep.Last(), i) > maxKm {
			refused++
			return false
		}
		return true
	}
	for walk := 0; walk < walks; walk++ {
		ep, err := env.Start(rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		chosen := make([]bool, n)
		chosen[ep.Last()] = true
		var cands, open []int
		for !ep.Done() {
			cands, open = cands[:0], open[:0]
			levels, leveled := ep.RewardLevels(nil)
			if leveled == cfg.SoftGate {
				t.Fatalf("RewardLevels ok = %v under SoftGate = %v", leveled, cfg.SoftGate)
			}
			if leveled {
				checkGroups(t, env, levels)
			}
			for i := 0; i < n; i++ {
				tr := ep.Transition(i)
				want := cfg.Reward(tr)
				if got := ep.Reward(i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("walk %d len %d item %d: Reward %v (%#x), Equation 2 on the Transition %v (%#x)",
						walk, ep.Len(), i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if leveled {
					level := 0.0
					if cfg.Theta(tr) == 1 {
						level = levels[env.RewardGroup(i)]
					}
					if math.Float64bits(want) != math.Float64bits(level) {
						t.Fatalf("walk %d len %d item %d: Reward %v, level of group %d %v (θ = %v)",
							walk, ep.Len(), i, want, env.RewardGroup(i), level, cfg.Theta(tr))
					}
				}
				want2 := canStep(ep, chosen, i)
				if got := ep.CanStep(i); got != want2 {
					t.Fatalf("walk %d len %d item %d: CanStep %v, reference %v (distance %v, leg %v, budget %v)",
						walk, ep.Len(), i, got, want2, ep.Distance(), env.Dist(ep.Last(), i), maxKm)
				}
				switch {
				case want2:
					cands = append(cands, i)
				case !chosen[i]:
					open = append(open, i)
				}
			}
			// Mostly follow the candidate set; sometimes step an item
			// CanStep refuses, as exploring learners may, so the walk
			// also runs past an exhausted distance budget.
			var next int
			switch {
			case len(open) > 0 && (len(cands) == 0 || rng.Intn(5) == 0):
				next = open[rng.Intn(len(open))]
			case len(cands) > 0:
				next = cands[rng.Intn(len(cands))]
			default:
				return refused
			}
			want := cfg.Reward(ep.Transition(next))
			if got := ep.Step(next); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("walk %d: Step(%d) = %v, Equation 2 %v", walk, next, got, want)
			}
			chosen[next] = true
		}
	}
	return refused
}

// checkGroups checks that GroupsByWeight lists every reward group once,
// under its members' type, in non-increasing order of level, and that
// GroupMembers lists every item once, under its own group, in index
// order.
func checkGroups(t *testing.T, env *mdp.Env, levels []float64) {
	t.Helper()
	listed, members := 0, 0
	for _, typ := range []item.Type{item.Primary, item.Secondary} {
		gs := env.GroupsByWeight(typ)
		for k, g := range gs {
			if k > 0 && levels[g] > levels[gs[k-1]] {
				t.Fatalf("%v groups out of order: level %v after %v", typ, levels[g], levels[gs[k-1]])
			}
			ms := env.GroupMembers(int(g))
			for j, i := range ms {
				if env.RewardGroup(int(i)) != int(g) || env.ItemType(int(i)) != typ || j > 0 && i <= ms[j-1] {
					t.Fatalf("%v group %d lists item %d of group %d, type %v, members %v",
						typ, g, i, env.RewardGroup(int(i)), env.ItemType(int(i)), ms)
				}
			}
			members += len(ms)
		}
		listed += len(gs)
	}
	if listed != len(levels) || members != env.NumItems() {
		t.Fatalf("%d groups listed of %d, %d members of %d items", listed, len(levels), members, env.NumItems())
	}
}

// globeInstance is a synthetic geo instance of n items moved onto the
// whole globe: the first half sits in four tight clusters, and the
// second half holds the exact antipode of each of them, so legs reach
// the Haversine ceiling.
func globeInstance(t *testing.T, n int) *dataset.Instance {
	t.Helper()
	inst, err := synth.Generate(synth.Params{Items: n, Geo: true, Seed: int64(n)})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]item.Item, n)
	for i := range items {
		items[i] = inst.Catalog.At(i)
		if i < n/2 {
			k := i % 4
			items[i].Lat = -60 + 40*float64(k) + 0.01*float64(i/4)
			items[i].Lon = -150 + 70*float64(k)
		} else {
			items[i].Lat, items[i].Lon = -items[i-n/2].Lat, items[i-n/2].Lon+180
		}
	}
	catalog, err := item.NewCatalog(inst.Catalog.Vocabulary(), items)
	if err != nil {
		t.Fatal(err)
	}
	return &dataset.Instance{
		Name: inst.Name, Kind: inst.Kind, Catalog: catalog, Hard: inst.Hard, Soft: inst.Soft,
		DefaultStart: inst.DefaultStart, Defaults: inst.Defaults, GoldScore: inst.GoldScore,
	}
}
