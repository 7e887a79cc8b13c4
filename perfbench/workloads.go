package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/httpapi"
)

// policyKey is the part of a plan request that selects a policy on the
// server: instance, training seed, trained start and episode budget. The
// engine is always sarsa.
type policyKey struct {
	inst     string
	seed     int64
	start    string
	episodes int
}

func (k policyKey) String() string {
	return fmt.Sprintf("%s|%d|%s|%d", k.inst, k.seed, k.start, k.episodes)
}

func (k policyKey) options() rlplanner.Options {
	return rlplanner.Options{Episodes: k.episodes, Seed: k.seed, Start: k.start}
}

// coreOptions are options() as the engine layer receives them.
func (k policyKey) coreOptions() core.Options {
	return core.Options{Episodes: k.episodes, Seed: k.seed, Start: k.start}
}

// requestBody is the JSON of every request the benchmark sends.
type requestBody struct {
	Instance string   `json:"instance"`
	Episodes int      `json:"episodes,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Start    string   `json:"start,omitempty"`
	User     string   `json:"user,omitempty"`
	Starts   []string `json:"starts,omitempty"`
	Items    []string `json:"items,omitempty"`
	Useful   *bool    `json:"useful,omitempty"`
}

func newOp(kind opKind, k policyKey, user int, starts, items []string, useful bool) *op {
	rb := requestBody{Instance: k.inst, Episodes: k.episodes, Seed: k.seed, Start: k.start, Starts: starts}
	if user >= 0 {
		rb.User = "u" + strconv.Itoa(user)
	}
	if kind == opFeedback {
		rb.Items, rb.Useful = items, &useful
	}
	body, err := json.Marshal(rb)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return &op{kind: kind, body: body, key: k, starts: starts, user: user, items: items, useful: useful, quality: true}
}

// workload is one seeded traffic mix.
//
// The warm workloads' servers run with auto-derive off. Univ-1 CS lies
// within the derive distance (0.3) of DS-CT and Cybersecurity, so with it
// on their cold trains would warm-start from whichever equidistant cached
// policy the store lists last — an order seeded per process — and their
// plans, and plan quality, would differ from run to run. Cold-start keeps
// the default because the derive path is part of what it measures.
type workload struct {
	name string
	// server builds the workload's server; dir is a fresh private
	// directory.
	server func(dir string) *httpapi.Server
	// prepare, when set, makes inputs that are not part of set-up.
	prepare func(b *bench) error
	// setup warms the server; its wall time is setup_s.
	setup func(b *bench) error
	// ops builds each client's operation list from the seed. Lists
	// repeat ops by pointer, so they stay small beside the server's heap.
	ops func(b *bench, seed int64, clients int) [][]*op
	// repeat lets a client start its list over; cold-start keys must
	// stay unseen.
	repeat bool
	// checks bounds how many distinct (policy, start) plans an untraced
	// run compares with the library (0 = all of them). Traced runs
	// compare every plan.
	checks int
	// derives reports that the server may warm-start a cold key from a
	// cached policy it chose. The library cannot know the choice, so a
	// derived plan is compared with the library's Recommend over the
	// artifact the server exports for the key; a cold-trained one is
	// also compared with the library's own training.
	derives bool
	// policyDir reports that the server writes policies through to a
	// repository.
	policyDir bool
	// feedback is the warm policy that feedback posts interleaved with a
	// plan-only mix rate (see withFeedback): feedbackBurst posts after
	// every feedbackEvery-th plan request. Personalized has feedback in
	// its own mix.
	feedback                     *policyKey
	feedbackEvery, feedbackBurst int
}

var workloads = map[string]*workload{
	"builtin-warm": builtinWarm,
	"catalog-8k":   catalog8k,
	"personalized": personalized,
	"cold-start":   coldStart,
}

// bench is one workload's server and the state its set-up produced.
type bench struct {
	w   *workload
	dir string
	srv *httpapi.Server
	h   http.Handler
	rp  *replayer // nil when untraced
	c   *conn

	catalogSpec []byte
	catalog     *rlplanner.Instance
	keys        []policyKey
	// plans holds a served plan's item ids per policy key, for
	// feedback bodies.
	plans map[policyKey][]string
}

// instance resolves a workload instance on the library side.
func (b *bench) instance(name string) (*rlplanner.Instance, error) {
	if b.catalog != nil && name == b.catalog.Name() {
		return b.catalog, nil
	}
	return rlplanner.InstanceByName(name)
}

// serveSetup serves one request during set-up, traced when the run is.
func (b *bench) serveSetup(o *op) ([]byte, error) {
	var code int
	var body []byte
	if b.rp != nil {
		code, body = b.rp.do(b.c, o, phaseSetup)
	} else {
		code, body, _ = b.c.exec(o)
	}
	if code/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", opPaths[o.kind], o.body, code, body)
	}
	return body, nil
}

// warm serves one plan request during set-up and keeps the plan's items
// for feedback bodies.
func (b *bench) warm(o *op) error {
	body, err := b.serveSetup(o)
	if err != nil {
		return err
	}
	ps, _, err := plans(o.kind, body)
	if err != nil {
		return err
	}
	b.plans[o.key] = ps[0].IDs()
	return nil
}

func getInstances(b *bench) error {
	if code, body := call(b.h, http.MethodGet, "/api/instances", nil); code != http.StatusOK {
		return fmt.Errorf("GET /api/instances: HTTP %d: %s", code, body)
	}
	return nil
}

// builtinWarm: warm /api/plan over the six built-in instances × four
// starts — the hot-key interactive shape, every policy cached.
var builtinWarm = &workload{
	name:   "builtin-warm",
	server: func(string) *httpapi.Server { return httpapi.New(httpapi.WithAutoDerive(false)) },
	prepare: func(b *bench) error {
		for _, in := range rlplanner.Instances() {
			items := in.Items()
			n := len(items)
			// Fixed starts keep the key set, and so plan quality, the same
			// for every seed; the seed orders the requests.
			for _, s := range []string{"", items[n/4].ID, items[n/2].ID, items[3*n/4].ID} {
				b.keys = append(b.keys, policyKey{inst: in.Name(), start: s})
			}
		}
		return nil
	},
	setup: func(b *bench) error {
		if err := getInstances(b); err != nil {
			return err
		}
		for _, k := range b.keys {
			if err := b.warm(newOp(opPlan, k, -1, nil, nil, false)); err != nil {
				return err
			}
		}
		return nil
	},
	ops: func(b *bench, seed int64, clients int) [][]*op {
		bodies := make([]*op, len(b.keys))
		for i, k := range b.keys {
			bodies[i] = newOp(opPlan, k, -1, nil, nil, false)
		}
		out := make([][]*op, clients)
		for c := range out {
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			for len(out[c]) < 24*256 {
				for _, i := range rng.Perm(len(bodies)) {
					out[c] = append(out[c], bodies[i])
				}
			}
		}
		return withFeedback(b, out, seed)
	},
	repeat:        true,
	feedback:      &policyKey{inst: "Univ-1 M.S. DS-CT"},
	feedbackEvery: 16,
	feedbackBurst: 1,
}

// catalogSize is above both the dense-Q and the exact-distance limits
// (4096), so reads go through the tiered sparse Q and the geo neighbor
// store.
const catalogSize = 8192

// catalogKey trains 64 episodes: the synthetic default of 500 would make
// set-up take minutes at this size.
var catalogKey = policyKey{inst: "catalog-8k", episodes: 64}

// catalog8k: /api/plan/batch from one start per request over one
// uploaded 8192-item geo catalog, where the guided scan is the request.
// Batch varies the start without training: on /api/plan the start is
// part of the policy key. One start per request keeps a request one walk.
var catalog8k = &workload{
	name:   "catalog-8k",
	server: func(string) *httpapi.Server { return httpapi.New(httpapi.WithAutoDerive(false)) },
	prepare: func(b *bench) error {
		// The catalog is the same for every seed; the seed orders the starts.
		in, err := rlplanner.GenerateInstance(rlplanner.GenParams{
			Name: catalogKey.inst, Items: catalogSize, Geo: true, Seed: catalogSize,
		})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			return err
		}
		b.catalogSpec = buf.Bytes()
		// The library side loads the same spec the server parses.
		b.catalog, err = rlplanner.LoadInstance(bytes.NewReader(b.catalogSpec))
		return err
	},
	setup: func(b *bench) error {
		if err := getInstances(b); err != nil {
			return err
		}
		if code, body := call(b.h, http.MethodPost, "/api/instances", b.catalogSpec); code != http.StatusCreated {
			return fmt.Errorf("POST /api/instances: HTTP %d: %s", code, body)
		}
		return b.warm(newOp(opBatch, catalogKey, -1, []string{b.catalog.Items()[0].ID}, nil, false))
	},
	ops: func(b *bench, seed int64, clients int) [][]*op {
		items := b.catalog.Items()
		pool := make([]*op, catalogStarts)
		out := make([][]*op, clients)
		for i, j := range rand.New(rand.NewSource(catalogSize)).Perm(len(items))[:catalogStarts] {
			pool[i] = newOp(opBatch, catalogKey, -1, []string{items[j].ID}, nil, false)
			pool[i].quality = false
			// Client 0 serves the quality set first, so plan quality
			// repeats exactly for every seed and run length.
			if i < catalogQualityStarts {
				out[0] = append(out[0], newOp(opBatch, catalogKey, -1, []string{items[j].ID}, nil, false))
			}
		}
		for c := range out {
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			for len(out[c]) < 4096 {
				for _, i := range rng.Perm(len(pool)) {
					out[c] = append(out[c], pool[i])
				}
			}
		}
		return withFeedback(b, out, seed)
	},
	repeat:        true,
	checks:        16,
	feedback:      &catalogKey,
	feedbackEvery: 1,
	feedbackBurst: 16,
}

// catalogStarts is the size of catalog-8k's fixed pool of walk starts.
// A walk's cost depends on its start (14–37 ms at seed), so starts drawn
// afresh for each seed would move the percentiles with the sample; every
// seed serves the same pool, in its own order.
const catalogStarts = 256

// catalogQualityStarts is the size of catalog-8k's quality set, the
// pool's first starts.
const catalogQualityStarts = 64

const (
	// population is the personalized workload's user count; zipf(1.1)
	// activity makes a few users very active and a long tail one-shot.
	population = 100_000
	// overlayBudget is below the overlay bytes of a run's active users,
	// so the CLOCK sweep evicts throughout (the 64 MiB default would
	// evict nothing).
	overlayBudget = 2 << 20
	// personalizedOps is the length of the generated sequence; a client
	// that reaches the end of its share starts over. It holds ~7 700
	// distinct users, several times the ~1 100 overlays the budget
	// keeps. A longer sequence would make the benchmark's own op lists
	// most of the live heap during the measured phase and so set the
	// collector's pace.
	personalizedOps = 1 << 15
)

var personalizedKey = policyKey{inst: "Univ-1 M.S. DS-CT"}

// personalized: zipf users over one built-in policy, 70% plan reads
// through overlays and 30% feedback writes.
var personalized = &workload{
	name: "personalized",
	server: func(string) *httpapi.Server {
		return httpapi.New(httpapi.WithAutoDerive(false), httpapi.WithOverlayBudget(overlayBudget))
	},
	setup: func(b *bench) error {
		if err := getInstances(b); err != nil {
			return err
		}
		return b.warm(newOp(opPlan, personalizedKey, -1, nil, nil, false))
	},
	ops: func(b *bench, seed int64, clients int) [][]*op {
		items := b.plans[personalizedKey]
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.1, 1, population-1)
		type userOps struct{ plan, yes, no *op }
		users := make(map[int]*userOps)
		out := make([][]*op, clients)
		for i := 0; i < personalizedOps; i++ {
			u := int(zipf.Uint64())
			uo := users[u]
			if uo == nil {
				uo = &userOps{
					plan: newOp(opPlan, personalizedKey, u, nil, nil, false),
					yes:  newOp(opFeedback, personalizedKey, u, nil, items, true),
					no:   newOp(opFeedback, personalizedKey, u, nil, items, false),
				}
				users[u] = uo
			}
			o := uo.plan
			if rng.Float64() < 0.3 {
				o = uo.no
				if rng.Intn(2) == 0 {
					o = uo.yes
				}
			}
			// Each user belongs to one client, so a user's operations
			// are serialized as a real user's would be.
			out[u%clients] = append(out[u%clients], o)
		}
		return out
	},
	repeat: true,
}

// coldStart: every request is a never-seen (instance, seed) key against
// a server with a fresh policy directory and the default 128-entry
// policy store, so each plan scans the store for a warm-start source,
// misses the cache and the repository, trains, compiles and writes
// through, and the store fills and evicts.
var coldStart = &workload{
	name: "cold-start",
	server: func(dir string) *httpapi.Server {
		return httpapi.New(httpapi.WithPolicyDir(dir))
	},
	setup: func(b *bench) error {
		if err := getInstances(b); err != nil {
			return err
		}
		// Train the policy the interleaved feedback rates; seed 0 never
		// occurs among the mix's keys.
		return b.warm(newOp(opPlan, coldFeedbackKey, -1, nil, nil, false))
	},
	ops: func(b *bench, seed int64, clients int) [][]*op {
		ins := rlplanner.Instances()
		out := make([][]*op, clients)
		for i := 0; i < coldKeys; i++ {
			k := policyKey{inst: ins[i%len(ins)].Name(), seed: seed*1_000_003 + int64(i) + 1}
			out[i%clients] = append(out[i%clients], newOp(opPlan, k, -1, nil, nil, false))
		}
		return withFeedback(b, out, seed)
	},
	checks:        24,
	policyDir:     true,
	derives:       true,
	feedback:      &coldFeedbackKey,
	feedbackEvery: 1,
	feedbackBurst: 16,
}

var coldFeedbackKey = policyKey{inst: "Univ-1 M.S. DS-CT"}

// coldKeys is the length of cold-start's key sequence, which a run must
// not exhaust: 30 seconds at the reference host's ~20 cold plans a
// second take 600.
const coldKeys = 8192

// feedbackUsers is how many users post the feedback interleaved with a
// plan-only mix. Each rates the plan once in set-up (warmFeedback), so a
// measured post updates an overlay that exists; a user's first post also
// builds one.
const feedbackUsers = 512

func feedbackUser(n int) int { return 1_000_000 + n }

// warmFeedback has every feedback user of a plan-only mix rate the
// workload's feedback plan once.
func (b *bench) warmFeedback() error {
	k := *b.w.feedback
	for n := range feedbackUsers {
		if _, err := b.serveSetup(newOp(opFeedback, k, feedbackUser(n), nil, b.plans[k], true)); err != nil {
			return err
		}
	}
	return nil
}

// withFeedback inserts w.feedbackBurst feedback posts on w.feedback's
// plan after every w.feedbackEvery-th operation of each list, from
// users that belong to one client each. Spread over the measured phase,
// these posts give the feedback metrics the same host conditions as the
// plans, and show whether the workload's traffic slows the write path.
// After a slow plan request the caches the write path uses are cold
// and the collector is often running; in a burst, most posts measure
// the write path itself.
func withFeedback(b *bench, lists [][]*op, seed int64) [][]*op {
	k, every, burst := *b.w.feedback, b.w.feedbackEvery, b.w.feedbackBurst
	var posts [feedbackUsers][2]*op
	for n := range posts {
		for i, useful := range []bool{false, true} {
			posts[n][i] = newOp(opFeedback, k, feedbackUser(n), nil, b.plans[k], useful)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]*op, len(lists))
	for c, l := range lists {
		sent := 0
		for i, o := range l {
			out[c] = append(out[c], o)
			if (i+1)%every != 0 {
				continue
			}
			for range burst {
				user := c + len(lists)*(sent%(feedbackUsers/len(lists)))
				sent++
				out[c] = append(out[c], posts[user][rng.Intn(2)])
			}
		}
	}
	return out
}

// checkServed decodes every distinct plan response of the timed phase,
// adds its plans to the quality tally once each, and compares plans with
// the library's own Policy.Recommend for the same key and start: all of
// them, or the first w.checks distinct (key, start) pairs in key order.
// Personalized plans are compared in traced runs, which mirror the
// overlays.
func (b *bench) checkServed(ctx context.Context, tallies []*tally) (q quality, failures int, err error) {
	type pending struct {
		key   policyKey
		start string
		got   *servedPlan
	}
	var todo []pending
	seen, counted := make(map[string]bool), make(map[string]bool)
	for _, t := range tallies {
		for body, dg := range t.digests {
			ps, starts, derr := plans(dg.op.kind, []byte(body))
			if derr != nil {
				failures += dg.count
				continue
			}
			for i, p := range ps {
				id := dg.op.key.String() + "\x00" + starts[i] + "\x00" + fmt.Sprint(p.Personalized, p.IDs())
				if dg.op.quality && !counted[id] {
					counted[id] = true
					q.add(&p.Plan)
				}
				if !seen[id] && !p.Personalized {
					todo = append(todo, pending{dg.op.key, starts[i], p})
				}
				seen[id] = true
			}
		}
	}
	sort.Slice(todo, func(i, j int) bool {
		ki, kj := todo[i].key.String(), todo[j].key.String()
		return ki < kj || ki == kj && todo[i].start < todo[j].start
	})
	if b.w.checks > 0 && len(todo) > b.w.checks {
		todo = todo[:b.w.checks]
	}
	lib := make(map[policyKey][]*rlplanner.Policy)
	for _, p := range todo {
		pols := lib[p.key]
		if pols == nil {
			if pols, err = b.libraryPolicies(ctx, p.key); err != nil {
				return q, failures, err
			}
			lib[p.key] = pols
		}
		for _, pol := range pols {
			want, rerr := pol.Recommend(p.start)
			if rerr != nil {
				return q, failures, fmt.Errorf("library recommend %s from %q: %w", p.key, p.start, rerr)
			}
			if cerr := checkPlan(p.got, want); cerr != nil {
				return q, failures, fmt.Errorf("%s from %q: %w", p.key, p.start, cerr)
			}
		}
	}
	return q, failures, nil
}

// libraryPolicies returns the library policies a served plan for k must
// match: the library's own training for k, and on a workload whose
// server derives, the server's exported artifact for k instead when the
// server warm-started it.
func (b *bench) libraryPolicies(ctx context.Context, k policyKey) ([]*rlplanner.Policy, error) {
	in, err := b.instance(k.inst)
	if err != nil {
		return nil, err
	}
	var pols []*rlplanner.Policy
	if b.w.derives {
		exp, err := b.export(k)
		if err != nil {
			return nil, err
		}
		if src, _ := exp.WarmStartedFrom(); src != "" {
			return []*rlplanner.Policy{exp}, nil
		}
		pols = append(pols, exp)
	}
	pol, err := rlplanner.Train(ctx, in, "sarsa", k.options())
	if err != nil {
		return nil, fmt.Errorf("library train %s: %w", k, err)
	}
	return append(pols, pol), nil
}

// export fetches the server's artifact for k and loads it as a library
// policy.
func (b *bench) export(k policyKey) (*rlplanner.Policy, error) {
	in, err := b.instance(k.inst)
	if err != nil {
		return nil, err
	}
	o := newOp(opPlan, k, -1, nil, nil, false)
	code, art := call(b.h, http.MethodPost, "/api/policies/export", o.body)
	if code != http.StatusOK {
		return nil, fmt.Errorf("export %s: HTTP %d: %s", k, code, art)
	}
	return rlplanner.LoadPolicyArtifact(bytes.NewReader(art), in, k.options())
}
