package sarsa

// Bit-identity of learning. The Q tables and learning curves Algorithm 1
// produces on the built-in instances and on synthetic catalogs, under the
// sequential and the batch-parallel schedules, are pinned as digests, and
// every training step's selection is compared with the full scan.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/reward"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// learnDigest hashes a learning run's result: every cell of a dense Q
// table (every stored cell of a sparse one, the rest being zero) and
// every episode return, by bits.
func learnDigest(res *Result) string {
	h := sha256.New()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	q := res.Policy.Q
	put(uint64(q.Size()))
	if q.IsDense() {
		for s := 0; s < q.Size(); s++ {
			for _, v := range q.Row(s) {
				put(math.Float64bits(v))
			}
		}
	} else {
		q.EachStored(func(s, e int, v float64) {
			put(uint64(s))
			put(uint64(e))
			put(math.Float64bits(v))
		})
	}
	put(uint64(len(res.EpisodeReturns)))
	for _, r := range res.EpisodeReturns {
		put(math.Float64bits(r))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// learnCase is one training run the digest test pins.
type learnCase struct {
	name     string
	inst     func(testing.TB) *dataset.Instance
	episodes int
	random   bool // RandomStart instead of the instance's default start
	workers  int
	sel      Selection
	algo     Algorithm
	soft     bool
	big      bool // skipped under -short
}

// learnCases are the runs TestLearnGolden pins: each built-in instance
// from its default start and from random starts, under the sequential
// (Workers 0) and the parallel (Workers 3) schedule; the Q-greedy,
// Q-learning and SoftGate variants on two of them; and 1024- and
// 8192-item synthetic geo catalogs.
func learnCases() []learnCase {
	builtin := func(inst *dataset.Instance) func(testing.TB) *dataset.Instance {
		return func(testing.TB) *dataset.Instance { return inst }
	}
	synthetic := func(n int) func(testing.TB) *dataset.Instance {
		return func(tb testing.TB) *dataset.Instance {
			inst, err := synth.Generate(synth.Params{Items: n, Geo: true, Seed: int64(n)})
			if err != nil {
				tb.Fatal(err)
			}
			return inst
		}
	}
	insts := append(univ.Univ1All(), univ.Univ2DS())
	insts = append(insts, trip.Instances()...)
	var cases []learnCase
	for _, inst := range insts {
		for _, random := range []bool{false, true} {
			for _, workers := range []int{0, 3} {
				cases = append(cases, learnCase{name: fmt.Sprintf("%s/random=%v/workers=%d", inst.Name, random, workers),
					inst: builtin(inst), episodes: 150, random: random, workers: workers})
			}
		}
	}
	for _, inst := range []*dataset.Instance{univ.Univ1DSCT(), trip.Paris().Instance} {
		cases = append(cases,
			learnCase{name: inst.Name + "/q-greedy", inst: builtin(inst), episodes: 100, random: true, sel: QGreedy},
			learnCase{name: inst.Name + "/q-learning", inst: builtin(inst), episodes: 100, random: true, workers: 2, algo: QLearning},
			learnCase{name: inst.Name + "/softgate", inst: builtin(inst), episodes: 100, random: true, soft: true})
	}
	for _, n := range []int{1024, 8192} {
		for _, workers := range []int{0, 3} {
			cases = append(cases, learnCase{name: fmt.Sprintf("synth-%d/workers=%d", n, workers),
				inst: synthetic(n), episodes: 64, workers: workers, big: n > 4096})
		}
	}
	return cases
}

// run trains the case's policy.
func (c learnCase) run(tb testing.TB) *Result {
	tb.Helper()
	inst := c.inst(tb)
	env := instanceEnv(tb, inst, inst.Defaults.Sim, c.soft)
	start := inst.StartIndex()
	if c.random {
		start = RandomStart
	}
	res, err := Learn(env, Config{Episodes: c.episodes, Alpha: inst.Defaults.Alpha, Gamma: inst.Defaults.Gamma,
		Start: start, Seed: 1, Workers: c.workers, Selection: c.sel, Algorithm: c.algo})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestLearnGolden pins every case's Q table and learning curve to the
// digest recorded when each step's reward-greedy choice still came from
// bestByReward's scan over every candidate. A reward-greedy step that
// took a different item, or drew the rng in a different order, changes
// the digest.
func TestLearnGolden(t *testing.T) {
	want := map[string]string{
		"Univ-1 M.S. DS-CT/random=false/workers=0":         "ebd9309bef94e851be2b08fcc454b955c12e58fb9cae5ea5c032490fb0e55930",
		"Univ-1 M.S. DS-CT/random=false/workers=3":         "fc76f5562d50f38d6f57e37702d053f2badf5a4f254c1caed4978d97f7550e90",
		"Univ-1 M.S. DS-CT/random=true/workers=0":          "a7daa0f028b21b0ea8bfd254539e9bdc5cdcc5baccd330690fd33b3112c33852",
		"Univ-1 M.S. DS-CT/random=true/workers=3":          "ee16d318ad4d85d692051359c8ce162642812772a1b42b231ba242cc4b409a7b",
		"Univ-1 M.S. Cybersecurity/random=false/workers=0": "0edf4e0467626987f99b2fdc748794d302fd6f35516e5269fccd14ea50e230ae",
		"Univ-1 M.S. Cybersecurity/random=false/workers=3": "8e492e1c097d05872f803bfea55d68e4073911fe83ff8b0d1d36e59ccbf91c68",
		"Univ-1 M.S. Cybersecurity/random=true/workers=0":  "bab84b762eac242860692f6880827f8b88c6ed83fbc4625cc66753d6d5166b88",
		"Univ-1 M.S. Cybersecurity/random=true/workers=3":  "0229dbafc1df662c2d297138e5ee380bdc7541ab9ef451cfd3fcc445d1f114b5",
		"Univ-1 M.S. CS/random=false/workers=0":            "7499e48c60e176d6175307e34115f1d03699f08470a5627c31d841566225278e",
		"Univ-1 M.S. CS/random=false/workers=3":            "4e0f5eac3ee98cc0fed0e69c846b12182312d05e89627c5e8c86916c890923bb",
		"Univ-1 M.S. CS/random=true/workers=0":             "6ecda422b685b3f2eaa18ae2f9b1615bedef516028963dd7ca811aaf1e4c9b79",
		"Univ-1 M.S. CS/random=true/workers=3":             "2d570ce8e8618146889914f2f299efe3c46e3efe67814c766ffff639661cfd5e",
		"Univ-2 M.S. DS/random=false/workers=0":            "852cf2ca628e2b781f120a901eb8cd322c7e9e459e5d0746c5364685fb23127d",
		"Univ-2 M.S. DS/random=false/workers=3":            "92f4b26409e65380c95681371802b278eabbefe9623af8b6ed83bdab64bd2f33",
		"Univ-2 M.S. DS/random=true/workers=0":             "1611e1b1c9973346a828694d9453079dd7d8f6745b84d32b1603da191cf08383",
		"Univ-2 M.S. DS/random=true/workers=3":             "332906988f0881d767f348e2dc7a53663bf48b2d4b1e7be68bf6feb575627618",
		"NYC/random=false/workers=0":                       "2a616358ffb705175a22ae859f839013b8aaf8c78b7c242df38f1a85a99a658b",
		"NYC/random=false/workers=3":                       "ee6f8ef96310b6a2406dd4a4da68ef15f6e14972aae16df3002cd92f6572a457",
		"NYC/random=true/workers=0":                        "6ac2570cda09d1670032c05a8fa1f66963a6fd23528bd1c50b1ab1b5ef4bc6e8",
		"NYC/random=true/workers=3":                        "a558330456d33ddd18af94c4bad7f97279d350efc9f6e2bb599c4c1f000c0528",
		"Paris/random=false/workers=0":                     "49c55c83a9c81dba6736c7f680fd937705ddd60a29b288a8e7209cbf342f26fb",
		"Paris/random=false/workers=3":                     "a83bc79a4fbcaa5ed623cdb45807f4dfc6b31f8145a199502809424c26187899",
		"Paris/random=true/workers=0":                      "a4aa415639b5a6b51d60d5fffb6d6c15bbb0c9c633b625d26fdff427c2b349bc",
		"Paris/random=true/workers=3":                      "73223075be1a6803d4125a6c4c00e648f6b82f406e017a8608568d1bc63fe6a6",
		"Univ-1 M.S. DS-CT/q-greedy":                       "045bb28039f5438a536d394c1925cab97ecc0cf3212316a993da1599600a5462",
		"Univ-1 M.S. DS-CT/q-learning":                     "fba196db306eac1fe2c9792af525f35ac93925a70d1ebc618dfe5a7d4f54a524",
		"Univ-1 M.S. DS-CT/softgate":                       "b007c755175d72b02cdaf46b9f84b2f7646cc85b338f706ef3431cb18f9c5442",
		"Paris/q-greedy":                                   "1c1289a04cf5c5e358b2d476c173df6c2c9bdb56a8ce476961b13956a2ee1803",
		"Paris/q-learning":                                 "8cad580c7b5c44b7c398307b962de550a0e68e24076c26972b374fefb8a9bccd",
		"Paris/softgate":                                   "dde9a017d5ea73806ead03d74c19618f5adf7a3d3b81d777a3b1b8aa13d8a688",
		"synth-1024/workers=0":                             "65ad64abe2c77e184cb409739bd28d0adabb030e7424cb0b0a478f6671815bf7",
		"synth-1024/workers=3":                             "6e0c95600e996e01630ec1d218a6f8212b2cc63949052c40c4fbab40c437e47a",
		"synth-8192/workers=0":                             "268f772d166177d1ad1196f45c63e51f4255528e7c8a65060ba2bf70297bfa83",
		"synth-8192/workers=3":                             "b68d14f2709b83efdf96f4c29b190349658569a48e6958ff54ee7dec22ec6825",
	}
	for _, c := range learnCases() {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.big {
				t.Skip("8192-item catalog skipped under -short")
			}
			if got := learnDigest(c.run(t)); got != want[c.name] {
				t.Errorf("digest %s, want %s", got, want[c.name])
			}
		})
	}
}

// levelStats counts, of the steps checkSelectAction compared, those
// the reward levels decided and those whose tie set spans several
// reward groups.
type levelStats struct{ steps, byLevels, spanning int }

// checkSelectAction trains on env as LearnContext does and, at every
// step, compares selectAction with selectByScan, each drawing from its
// own rng seeded alike: both must pick the same item and leave their rng
// streams at the same point.
func checkSelectAction(t *testing.T, env *mdp.Env, sel Selection, eps float64, episodes int, seed int64) levelStats {
	t.Helper()
	n := env.NumItems()
	q := qtable.NewWithDenseMax(n, 0)
	rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	var sc, refSc, probe scratch
	var st levelStats
	for i := 0; i < episodes; i++ {
		ep, err := env.Start(rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		ref.Intn(n)
		s := ep.Last()
		for {
			if ties := rewardTies(env, ep, &probe); len(ties) > 0 {
				st.byLevels++
				if slices.ContainsFunc(ties, func(a int) bool { return env.RewardGroup(a) != env.RewardGroup(ties[0]) }) {
					st.spanning++
				}
			}
			e := selectAction(env, ep, s, q, sel, eps, rng, &sc)
			want := selectByScan(ep, s, q, sel, eps, ref, &refSc)
			if e != want {
				t.Fatalf("episode %d at %v: selectAction = %d, selectByScan %d", i, ep.Sequence(), e, want)
			}
			if a, b := rng.Int63(), ref.Int63(); a != b {
				t.Fatalf("episode %d at %v: rng streams diverged", i, ep.Sequence())
			}
			st.steps++
			if e < 0 || ep.Done() {
				break
			}
			r := ep.Step(e)
			q.Update(s, e, 0.8, r, 0.9, -1, -1)
			s = e
		}
	}
	return st
}

// TestSelectActionMatchesScan is the equivalence property of the
// reward-greedy step: selectAction picks, at every step, the item the
// full scan picks, with the same rng draws. It runs on every built-in
// instance under both gates, with and without exploration, on
// synthetic catalogs, under Q-greedy selection, and on a configuration
// whose primary and secondary groups share one level, so a tie set
// spans several groups and must be put back in index order.
func TestSelectActionMatchesScan(t *testing.T) {
	var byLevels int
	builtins := append(univ.Univ1All(), univ.Univ2DS())
	builtins = append(builtins, trip.Instances()...)
	for _, inst := range builtins {
		for _, soft := range []bool{false, true} {
			env := instanceEnv(t, inst, inst.Defaults.Sim, soft)
			for _, eps := range []float64{0, DefaultExplore} {
				st := checkSelectAction(t, env, RewardGreedy, eps, 60, 1)
				if soft && st.byLevels > 0 {
					t.Fatalf("%s: the levels decided %d SoftGate steps", inst.Name, st.byLevels)
				}
				byLevels += st.byLevels
			}
			checkSelectAction(t, env, QGreedy, DefaultExplore, 20, 2)
		}
	}
	for _, n := range []int{300, 2048} {
		inst, err := synth.Generate(synth.Params{Items: n, Geo: true, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		byLevels += checkSelectAction(t, instanceEnv(t, inst, inst.Defaults.Sim, false), RewardGreedy, DefaultExplore, 12, 3).byLevels
	}
	if byLevels == 0 {
		t.Fatal("no step was decided by the reward levels")
	}

	// δ = 0 and w1 = w2 on a catalog whose primaries and secondaries
	// interleave: an open primary and an open secondary score the same,
	// so a tie set merges two groups' members out of index order.
	inst, err := synth.Generate(synth.Params{Items: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rw := reward.Config{Delta: 0, Beta: 1, Epsilon: inst.Defaults.Epsilon,
		Weights: reward.Weights{Primary: 0.5, Secondary: 0.5}, Sim: seqsim.Average, Template: inst.Soft.Template}
	env, err := mdp.NewEnv(inst.Catalog, inst.Hard, inst.Soft, rw, mdp.CountBudget{H: inst.Hard.Length()})
	if err != nil {
		t.Fatal(err)
	}
	spanning := 0
	for seed, eps := range []float64{0, DefaultExplore} {
		spanning += checkSelectAction(t, env, RewardGreedy, eps, 40, int64(seed)).spanning
	}
	if spanning == 0 {
		t.Fatal("no tie set spanned two reward groups")
	}
}
