// Package httpapi serves RL-Planner over HTTP/JSON: instance discovery,
// one-shot planning with any registered engine, policy artifact
// export/import, the rater panel and interactive sessions. It exists for
// the interactive-mode deployment scenario of §IV-F (MOOC and travel
// platforms advising thousands of users).
//
// The serving path separates training from serving. Policies are
// immutable artifacts kept in a bounded CLOCK store (engine.Store) with
// per-key singleflight training: concurrent requests for the same cold
// (instance, engine, options) key share one training run, different keys
// train in parallel, and every read path (instance listing, cached-policy
// planning, sessions) stays responsive while training runs — no global
// lock is ever held across a learning phase.
package httpapi

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/repo"
	"github.com/rlplanner/rlplanner/internal/resilience"
)

// sessionCapacity bounds the live interactive sessions; past it, CLOCK
// evicts the sessions least recently used, and an evicted session
// answers 404 like an unknown id. One session holds an mdp.Episode
// (about 6 B per catalog item plus the plan so far) and its rejection
// set, and keeps its policy and environment alive after the policy
// store has evicted them.
const sessionCapacity = 4096

// Server holds the HTTP state. Everything it keeps per key — policies,
// per-user overlays and interactive sessions — lives in a bounded
// engine.Store, so all three share one eviction policy, one sharding
// scheme and one singleflight. The mutex only serializes
// custom-instance *writes* — never a training run, and never the plan
// path's reads: the custom-instance map is published as an immutable
// copy-on-write snapshot behind an atomic pointer, so resolving an
// instance on every plan request is lock-free.
type Server struct {
	mu sync.Mutex
	// custom is the immutable snapshot of uploaded instances. Readers
	// Load it and index without any lock; createInstance copies the map
	// under mu and atomically publishes the successor. Uploads are rare,
	// plan-path reads are millions — classic copy-on-write territory.
	custom atomic.Pointer[map[string]*rlplanner.Instance]

	// sessions holds the live interactive sessions (sessionCapacity of
	// them at most); nextID numbers them.
	sessions *engine.Store[*sessionState]
	nextID   atomic.Uint64

	policies *engine.Store[*rlplanner.Policy]

	// policyDir roots the durable policy repository (WithPolicyDir, ""
	// disables it); repo and tier are live once New opened it. The tier
	// sits behind the policy store: memory cache → on-disk repo → train,
	// with write-through on train and a cross-process training claim.
	policyDir string
	repo      *repo.Repo
	tier      *policyTier

	// trainBudget bounds each cold-start training run (0 = unbounded).
	// Engines that can checkpoint (sarsa, qlearning) return a partial
	// policy at the deadline; the rest fail into the degradation ladder.
	trainBudget time.Duration
	// training admission-controls concurrent cold-start runs; nil means
	// unlimited. Cached serving is never gated.
	training *resilience.Semaphore
	// breaker holds per-policy-key retry backoff after training faults.
	breaker *resilience.Breaker
	// fallback names the engine that serves degraded plans when the
	// requested engine faults; "" disables the ladder's fallback rung.
	fallback string
	// trainWorkers is the worker count every cold-start training run uses
	// (0 = the sequential schedule). The parallel protocol is
	// bit-identical for any count, so this is a deployment throughput
	// knob, not part of the policy cache key.
	trainWorkers int
	// autoDerive enables warm-starting cold requests for the TD engines
	// from the nearest cached policy of a different catalog (fingerprint
	// near-miss) instead of training from zeros.
	autoDerive bool
	metrics    resilience.Metrics

	// overlays holds the per-(user, policy) personalization overlays —
	// the serving half of the layered-read design — charged their bytes
	// against overlayBudget. overlayBudget and overlayCells configure it
	// before New builds the store.
	overlays      *engine.Store[*overlayEntry]
	overlayBudget int
	overlayCells  int
	// feedbackSignals counts successfully applied POST /api/feedback
	// signals for the metrics endpoint.
	feedbackSignals atomic.Uint64
	// loadFailures counts artifacts this server failed to restore —
	// truncated or corrupt payloads, fingerprint mismatches — from the
	// import endpoint or the policy repository. A climbing figure means a
	// repository (or an operator's import pipeline) is feeding the daemon
	// bad artifacts.
	loadFailures atomic.Uint64
	// wireFallbacks counts plan, batch and feedback request bodies that
	// left the canonical-form decoder for json.Decoder (decodeBody). A
	// climbing figure means clients send a form the fast path does not
	// take: unknown or case-folded keys, nulls, repeated keys.
	wireFallbacks atomic.Uint64

	// onTrain, when set, observes every actual training run (not cache
	// hits or singleflight followers). Tests use it to count and to
	// stall training while probing other endpoints.
	onTrain func(key string)
}

type sessionState struct {
	// mu serializes the requests on one session: rlplanner.Session has
	// no lock of its own, and every handler's action and the view it
	// renders read or write the session's episode and rejection set.
	mu       sync.Mutex
	instance string
	session  *rlplanner.Session
}

// do runs act (nil for a read) and renders the resulting view with
// st.mu held across both.
func (st *sessionState) do(id string, act func(*rlplanner.Session) error) (sessionView, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if act != nil {
		if err := act(st.session); err != nil {
			return sessionView{}, err
		}
	}
	return sessionView{
		ID:          id,
		Instance:    st.instance,
		Plan:        st.session.PlanIDs(),
		Done:        st.session.Done(),
		Suggestions: st.session.Suggestions(),
	}, nil
}

// Option configures a Server.
type Option func(*Server)

// WithPolicyCacheSize bounds the policy store to n entries
// (engine.DefaultStoreSize when never set or n <= 0).
func WithPolicyCacheSize(n int) Option {
	return func(s *Server) { s.policies = engine.NewStore[*rlplanner.Policy](n) }
}

// WithTrainBudget bounds the wall-clock time of every cold-start training
// run (0 or negative disables the bound). The budget is attached to the
// detached training context, so it holds even after the originating
// request disconnects.
func WithTrainBudget(d time.Duration) Option {
	return func(s *Server) {
		if d < 0 {
			d = 0
		}
		s.trainBudget = d
	}
}

// WithMaxTraining caps concurrent cold-start training runs; requests
// beyond the cap are shed with 503 + Retry-After instead of queued
// (n <= 0 = unlimited). Cached policies keep serving at any load.
func WithMaxTraining(n int) Option {
	return func(s *Server) { s.training = resilience.NewSemaphore(n) }
}

// WithRetryBackoff overrides the exponential backoff schedule applied to
// a policy key after its training panics or times out (zero durations
// select the resilience defaults). Tests use short windows.
func WithRetryBackoff(base, max time.Duration) Option {
	return func(s *Server) { s.breaker = resilience.NewBreaker(base, max) }
}

// WithFallbackEngine sets the engine that serves degraded plans when the
// requested engine faults ("" disables the fallback rung entirely). The
// default is "gold": the feasible-baseline synthesizer, the cheapest
// engine that still honors every hard constraint.
func WithFallbackEngine(name string) Option {
	return func(s *Server) { s.fallback = name }
}

// WithTrainWorkers sets the worker count for every cold-start training
// run (n <= 0 keeps the sequential schedule). Because the parallel
// protocol is bit-identical for any worker count, changing this never
// changes the policies a deployment serves — only how fast cold starts
// finish.
func WithTrainWorkers(n int) Option {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.trainWorkers = n
	}
}

// WithOverlayBudget bounds the total estimated resident bytes of all
// per-user personalization overlays (DefaultOverlayBudgetBytes when
// never set or n <= 0). When the fleet exceeds the budget, CLOCK evicts
// the overlays least recently read or written, and their users revert
// to base-policy serving.
func WithOverlayBudget(n int) Option {
	return func(s *Server) { s.overlayBudget = n }
}

// WithOverlayCells caps the shadowed action values each individual
// user's overlay may hold (qtable.DefaultOverlayCells when never set or
// n <= 0); past the cap the overlay evicts its own least-recently-used
// rows.
func WithOverlayCells(n int) Option {
	return func(s *Server) { s.overlayCells = n }
}

// WithAutoDerive toggles warm-start derivation on fingerprint near-miss
// (default on): when a cold request targets a catalog close to one an
// existing cached TD policy was trained on, training seeds from that
// policy with a distance-scaled episode budget instead of starting from
// zeros. Disable it to force every cold start to train from scratch.
func WithAutoDerive(enabled bool) Option {
	return func(s *Server) { s.autoDerive = enabled }
}

// New returns an empty server.
func New(opts ...Option) *Server {
	s := &Server{
		sessions:   engine.NewStore[*sessionState](sessionCapacity),
		policies:   engine.NewStore[*rlplanner.Policy](0),
		breaker:    resilience.NewBreaker(0, 0),
		fallback:   "gold",
		autoDerive: true,
	}
	s.custom.Store(&map[string]*rlplanner.Instance{})
	for _, o := range opts {
		o(s)
	}
	if s.overlayBudget <= 0 {
		s.overlayBudget = DefaultOverlayBudgetBytes
	}
	s.overlays = engine.NewCostStore(s.overlayBudget, overlayCost)
	s.openRepo()
	return s
}

// instance resolves a name against custom uploads first, then
// built-ins. Lock-free: the custom map is an immutable snapshot, so the
// resolve every plan/feedback/batch request performs costs one atomic
// load and a map read — no mutex on the serving read path.
func (s *Server) instance(name string) (*rlplanner.Instance, error) {
	if in, ok := (*s.custom.Load())[name]; ok {
		return in, nil
	}
	return rlplanner.InstanceByName(name)
}

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/instances", s.listInstances)
	mux.HandleFunc("POST /api/instances", s.createInstance)
	mux.HandleFunc("GET /api/instances/{name}", s.getInstance)
	mux.HandleFunc("GET /api/engines", s.listEngines)
	mux.HandleFunc("GET /api/metrics", s.getMetrics)
	mux.HandleFunc("GET /api/policies", s.listPolicies)
	mux.HandleFunc("POST /api/policies/export", s.exportPolicy)
	mux.HandleFunc("POST /api/policies/import", s.importPolicy)
	mux.HandleFunc("POST /api/policies/{id}/derive", s.derivePolicy)
	mux.HandleFunc("POST /api/plan", s.plan)
	mux.HandleFunc("POST /api/plan/batch", s.planBatch)
	mux.HandleFunc("POST /api/feedback", s.feedback)
	mux.HandleFunc("POST /api/rate", s.rate)
	mux.HandleFunc("POST /api/explain", s.explain)
	mux.HandleFunc("POST /api/sessions", s.createSession)
	mux.HandleFunc("GET /api/sessions/{id}", s.getSession)
	mux.HandleFunc("POST /api/sessions/{id}/accept", s.sessionAccept)
	mux.HandleFunc("POST /api/sessions/{id}/reject", s.sessionReject)
	mux.HandleFunc("POST /api/sessions/{id}/complete", s.sessionComplete)
	return mux
}

// jsonContentType is every JSON response's Content-Type value, shared
// so that setting the header allocates nothing; no one writes to it.
var jsonContentType = []string{"application/json"}

// writeJSON writes v with the given status. The value is encoded
// (encodeJSON: json.Encoder.Encode's bytes) before any byte reaches the
// wire, so an encoding failure can still produce a clean 500 instead of
// a torn response; write errors (client gone) are logged, not dropped.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	p := getWireBuf()
	defer putWireBuf(p)
	b, err := encodeJSON(*p, v)
	*p = b
	if err != nil {
		log.Printf("httpapi: encode response: %v", err)
		http.Error(w, `{"error":"internal: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if _, err := w.Write(b); err != nil {
		log.Printf("httpapi: write response: %v", err)
	}
}

// writeError reports an error as {"error": "..."}. Because writeJSON
// marshals before writing, the header has not been sent for the failing
// value, so the error status always reaches the client intact.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// instanceInfo is the discovery form of an instance.
type instanceInfo struct {
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	NumItems     int     `json:"num_items"`
	NumTopics    int     `json:"num_topics"`
	DefaultStart string  `json:"default_start"`
	GoldScore    float64 `json:"gold_score"`
}

func info(in *rlplanner.Instance) instanceInfo {
	kind := "course"
	if in.IsTrip() {
		kind = "trip"
	}
	return instanceInfo{
		Name:         in.Name(),
		Kind:         kind,
		NumItems:     in.NumItems(),
		NumTopics:    len(in.Topics()),
		DefaultStart: in.DefaultStart(),
		GoldScore:    in.GoldScore(),
	}
}

func (s *Server) listInstances(w http.ResponseWriter, _ *http.Request) {
	var out []instanceInfo
	for _, in := range rlplanner.Instances() {
		out = append(out, info(in))
	}
	for _, in := range *s.custom.Load() {
		out = append(out, info(in))
	}
	writeJSON(w, http.StatusOK, out)
}

// createInstance registers a custom instance from a JSON spec (the
// rlplanner.InstanceSpec / cmd/datagen schema). Registered instances are
// addressable by name in every other endpoint of this server.
func (s *Server) createInstance(w http.ResponseWriter, r *http.Request) {
	in, err := rlplanner.LoadInstance(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := rlplanner.InstanceByName(in.Name()); err == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("instance %q shadows a built-in", in.Name()))
		return
	}
	// Copy-on-write publish: mu serializes writers, readers only ever
	// see complete snapshots.
	s.mu.Lock()
	old := *s.custom.Load()
	_, dup := old[in.Name()]
	if !dup {
		next := make(map[string]*rlplanner.Instance, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		next[in.Name()] = in
		s.custom.Store(&next)
	}
	s.mu.Unlock()
	if dup {
		writeError(w, http.StatusConflict, fmt.Errorf("instance %q already exists", in.Name()))
		return
	}
	writeJSON(w, http.StatusCreated, info(in))
}

func (s *Server) getInstance(w http.ResponseWriter, r *http.Request) {
	in, err := s.instance(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		instanceInfo
		Items []rlplanner.Item `json:"items"`
	}{info(in), in.Items()})
}

func (s *Server) listEngines(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"engines": rlplanner.Engines()})
}

// planRequest selects an instance, an engine and options.
type planRequest struct {
	Instance string  `json:"instance"`
	Engine   string  `json:"engine,omitempty"` // registry name; "" = sarsa
	Episodes int     `json:"episodes,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Start    string  `json:"start,omitempty"`
	MinSim   bool    `json:"min_sim,omitempty"`
	Time     float64 `json:"time_limit_hours,omitempty"`
	Distance float64 `json:"max_distance_km,omitempty"`
	// Baseline is the legacy spelling of Engine ("eda", "omega", "gold").
	Baseline string `json:"baseline,omitempty"`
	// User identifies the requesting user for personalized serving. A
	// user who has posted feedback (see /api/feedback) is served through
	// their copy-on-write overlay; everyone else — and every request
	// without a user — serves the shared base policy unchanged. User is
	// deliberately NOT part of the policy cache key: all users share one
	// trained artifact.
	User string `json:"user,omitempty"`
}

func (r planRequest) options() rlplanner.Options {
	return rlplanner.Options{
		Episodes:          r.Episodes,
		Seed:              r.Seed,
		Start:             r.Start,
		MinimumSimilarity: r.MinSim,
		TimeLimitHours:    r.Time,
		MaxDistanceKm:     r.Distance,
	}
}

// engineName resolves the requested engine (legacy Baseline included) to
// its canonical registry name.
func (r planRequest) engineName() (string, error) {
	name := r.Engine
	if name == "" {
		name = r.Baseline
	}
	return rlplanner.EngineName(name)
}

// policyKey identifies one (instance, engine, options) policy in the
// store. engineName must be canonical so aliases share an entry. The
// key also names the policy's entry in the repository on disk, so its
// bytes must not change: they are those of the format
// "%s|%s|%d|%d|%s|%v|%g|%g" over the same fields. A request builds its
// key once and passes it down.
func (r planRequest) policyKey(engineName string) string {
	var buf [128]byte // on the stack; a longer key grows onto the heap
	b := append(buf[:0], r.Instance...)
	b = append(b, '|')
	b = append(b, engineName...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(r.Episodes), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, r.Seed, 10)
	b = append(b, '|')
	b = append(b, r.Start...)
	b = append(b, '|')
	b = strconv.AppendBool(b, r.MinSim)
	b = append(b, '|')
	b = strconv.AppendFloat(b, r.Time, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendFloat(b, r.Distance, 'g', -1, 64)
	return string(b)
}

// policy returns the trained policy for the request: from the store when
// cached (never blocking on any training run), otherwise training it
// behind the per-key singleflight under the server's resilience rules —
// retry backoff for keys whose training recently faulted, admission
// control over concurrent cold starts, and the training budget.
//
// Training runs under a detached-but-bounded context: detached from the
// request (a canceled request must not abort a run that concurrent
// followers are waiting on) yet bounded by the training budget, so an
// abandoned run cannot hold a training slot forever.
//
// key is req.policyKey(engineName), built once by the caller.
func (s *Server) policy(ctx context.Context, inst *rlplanner.Instance, engineName, key string, req planRequest) (*rlplanner.Policy, error) {
	if pol, ok := s.policies.Cached(key); ok {
		return pol, nil
	}
	if ok, wait := s.breaker.Allow(key); !ok {
		s.metrics.Rejections.Add(1)
		return nil, &backoffError{wait: wait}
	}
	trainCtx := context.WithoutCancel(ctx)
	cancel := context.CancelFunc(func() {})
	if s.trainBudget > 0 {
		trainCtx, cancel = context.WithTimeout(trainCtx, s.trainBudget)
	}
	defer cancel()
	pol, ran, err := s.policies.GetOrTrain(ctx, key, func() (*rlplanner.Policy, error) {
		if !s.training.TryAcquire() {
			return nil, errOverCapacity
		}
		defer s.training.Release()
		if s.onTrain != nil {
			s.onTrain(key)
		}
		return s.trainOrDerive(trainCtx, inst, engineName, req)
	})
	if ran {
		// Only the singleflight leader updates the breaker and counters:
		// followers share its outcome, and counting them would multiply
		// one fault into many.
		s.noteOutcome(key, pol, err)
	}
	return pol, err
}

func (s *Server) plan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Resolve the instance and engine once; everything downstream reuses
	// them.
	inst, err := s.instance(req.Instance)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	engineName, err := req.engineName()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.planOrFallback(r.Context(), inst, engineName, req.policyKey(engineName), req, "")
	if err != nil {
		s.writePlanError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// policyInfo describes one cached policy.
type policyInfo struct {
	Key         string `json:"key"`
	Engine      string `json:"engine"`
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) listPolicies(w http.ResponseWriter, _ *http.Request) {
	out := []policyInfo{}
	s.policies.Range(func(key string, pol *rlplanner.Policy) {
		out = append(out, policyInfo{Key: key, Engine: pol.Engine(), Fingerprint: pol.Fingerprint()})
	})
	writeJSON(w, http.StatusOK, out)
}

// exportPolicy trains (or reuses) the policy for a plan request and
// streams it as a binary artifact: version header, engine name, catalog
// fingerprint, learned values.
func (s *Server) exportPolicy(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	inst, err := s.instance(req.Instance)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	engineName, err := req.engineName()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pol, err := s.policy(r.Context(), inst, engineName, req.policyKey(engineName), req)
	if err != nil {
		s.writePlanError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := pol.Save(w); err != nil {
		log.Printf("httpapi: stream policy artifact: %v", err)
	}
}

// importPolicy installs an uploaded artifact (the bytes exportPolicy
// wrote) for the instance named in the query. The artifact's catalog
// fingerprint must match. The policy is stored under the instance's
// default-options key for its engine (and written through to the policy
// repository, when one is attached), so subsequent
// {"instance": ..., "engine": ...} plan requests are served from it
// without any training — after a restart too.
func (s *Server) importPolicy(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("instance")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?instance= query parameter"))
		return
	}
	inst, err := s.instance(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// Imports honor the deployment's data-plane size guards so the
	// rebuilt environment shares the cache entry trained policies use.
	pol, err := rlplanner.LoadPolicyArtifact(r.Body, inst, s.trainOpts(planRequest{Instance: name}))
	if err != nil {
		s.loadFailures.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := planRequest{Instance: name}.policyKey(pol.Engine())
	s.policies.Add(key, pol)
	writeJSON(w, http.StatusCreated, policyInfo{Key: key, Engine: pol.Engine(), Fingerprint: pol.Fingerprint()})
}

// rateRequest rates an explicit plan on an instance.
type rateRequest struct {
	Instance string   `json:"instance"`
	Items    []string `json:"items"`
	Raters   int      `json:"raters,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
}

func (s *Server) rate(w http.ResponseWriter, r *http.Request) {
	var req rateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	inst, err := s.instance(req.Instance)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	plan := &rlplanner.Plan{}
	for _, id := range req.Items {
		plan.Steps = append(plan.Steps, rlplanner.PlanStep{ID: id})
	}
	ratings, err := rlplanner.RatePlan(inst, plan, req.Raters, req.Seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ratings)
}

// sessionRequest opens an interactive session.
type sessionRequest struct {
	planRequest
	Suggestions int `json:"suggestions,omitempty"`
}

// sessionView is the JSON state of a session.
type sessionView struct {
	ID          string                 `json:"id"`
	Instance    string                 `json:"instance"`
	Plan        []string               `json:"plan"`
	Done        bool                   `json:"done"`
	Suggestions []rlplanner.Suggestion `json:"suggestions"`
}

func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	inst, err := s.instance(req.Instance)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	engineName, err := req.engineName()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Sessions have no fallback rung: only value-based policies can drive
	// them, so a fault maps straight to its status.
	pol, err := s.policy(r.Context(), inst, engineName, req.policyKey(engineName), req.planRequest)
	if err != nil {
		s.writePlanError(w, err)
		return
	}
	sess, err := pol.NewSession(req.Suggestions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := &sessionState{instance: req.Instance, session: sess}
	id := "s" + strconv.FormatUint(s.nextID.Add(1), 10)
	s.sessions.Add(id, st)

	view, _ := st.do(id, nil) // a read cannot fail
	writeJSON(w, http.StatusCreated, view)
}

// lookup finds a session by path id; an evicted session is as unknown
// as one never created.
func (s *Server) lookup(r *http.Request) (string, *sessionState, error) {
	id := r.PathValue("id")
	st, ok := s.sessions.Cached(id)
	if !ok {
		return "", nil, fmt.Errorf("unknown session %q", id)
	}
	return id, st, nil
}

func (s *Server) getSession(w http.ResponseWriter, r *http.Request) {
	id, st, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	view, _ := st.do(id, nil) // a read cannot fail
	writeJSON(w, http.StatusOK, view)
}

// itemRequest names one item for accept/reject.
type itemRequest struct {
	Item string `json:"item"`
}

func (s *Server) sessionAccept(w http.ResponseWriter, r *http.Request) {
	s.sessionAction(w, r, (*rlplanner.Session).Accept)
}

func (s *Server) sessionReject(w http.ResponseWriter, r *http.Request) {
	s.sessionAction(w, r, (*rlplanner.Session).Reject)
}

func (s *Server) sessionAction(w http.ResponseWriter, r *http.Request,
	act func(*rlplanner.Session, string) error) {

	id, st, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var req itemRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	view, err := st.do(id, func(sess *rlplanner.Session) error {
		return act(sess, req.Item)
	})
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) sessionComplete(w http.ResponseWriter, r *http.Request) {
	id, st, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var plan *rlplanner.Plan
	view, _ := st.do(id, func(sess *rlplanner.Session) error {
		plan = sess.AutoComplete()
		return nil
	})
	writeJSON(w, http.StatusOK, struct {
		sessionView
		Result *rlplanner.Plan `json:"result"`
	}{view, plan})
}

// explainRequest asks for a step-by-step justification of a plan.
type explainRequest struct {
	Instance string   `json:"instance"`
	Items    []string `json:"items"`
}

func (s *Server) explain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	inst, err := s.instance(req.Instance)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	plan := &rlplanner.Plan{}
	for _, id := range req.Items {
		plan.Steps = append(plan.Steps, rlplanner.PlanStep{ID: id})
	}
	lines, err := rlplanner.ExplainPlan(inst, plan)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"explanation": lines})
}
