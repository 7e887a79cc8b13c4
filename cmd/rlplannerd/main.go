// Command rlplannerd serves RL-Planner over HTTP/JSON — the interactive
// deployment mode of §IV-F. Training runs behind per-key singleflight
// into a bounded policy cache; every read endpoint stays responsive
// while policies train. Endpoints:
//
//	GET  /api/instances                  list built-in instances
//	GET  /api/instances/{name}           instance catalog
//	GET  /api/engines                    list registered planning engines
//	GET  /api/metrics                    resilience fault counters
//	GET  /api/policies                   list cached policies
//	POST /api/policies/export            train and download a policy artifact
//	POST /api/policies/import?instance=  upload an artifact for serving
//	POST /api/policies/{key}/derive      warm-start a policy for another catalog
//	POST /api/plan                       {"instance": ..., "engine": ..., "user": ...}
//	POST /api/feedback                   {"instance": ..., "user": ..., "items": [...], "useful": true}
//	POST /api/rate                       {"instance": ..., "items": [...]}
//	POST /api/sessions                   open an interactive session
//	GET  /api/sessions/{id}              session state + suggestions
//	POST /api/sessions/{id}/accept       {"item": "CS 675"}
//	POST /api/sessions/{id}/reject       {"item": "CS 683"}
//	POST /api/sessions/{id}/complete     auto-complete and evaluate
//
// The daemon is resilient by construction: each training run is bounded
// by -train-timeout (the SARSA engines checkpoint a partial policy at
// the deadline), concurrent cold starts are capped by -max-training
// (excess requests get 503 + Retry-After), solver panics degrade the one
// faulting policy key instead of the process, and SIGTERM/SIGINT drains
// in-flight requests before exiting.
//
// Training throughput is tunable: -train-workers runs each cold start's
// episode walkers in parallel (bit-identical results for any worker
// count), and auto-derivation (on by default, -auto-derive=false to
// disable) warm-starts cold requests from the nearest cached policy when
// only a few catalog items changed, shrinking the episode budget by the
// catalog distance.
//
// Serving is personalizable per user: POST /api/feedback folds a user's
// plan feedback into a bounded copy-on-write overlay over the shared
// policy, and plan requests carrying that user id read through it. The
// fleet's total overlay memory is capped by -overlay-budget (CLOCK
// evicts the overlays least recently read or written) and each user's
// overlay by -overlay-cells. At most 4096 interactive sessions stay
// live; past that, the least recently used are evicted and answer 404.
//
// Usage:
//
//	rlplannerd [-addr :8080] [-policy-cache 128] [-train-timeout 0]
//	           [-max-training 0] [-train-workers 0] [-auto-derive]
//	           [-overlay-budget 0] [-overlay-cells 0]
//	           [-policy-dir dir] [-preload manifest.json]
//	           [-drain-timeout 10s] [-pprof addr] [-profile-contention]
//
// With -policy-dir the daemon keeps a durable, crash-safe policy
// repository on disk: trained policies are written through (temp file +
// fsync + atomic rename, checksummed), verified and reloaded on the
// next boot, and corrupt or truncated entries are quarantined to *.bad
// instead of crashing the scan. Replicas pointing at one shared
// directory coordinate through per-key lease files so each policy
// trains exactly once fleet-wide. -preload names a JSON manifest of
// plan requests resolved before the listener accepts traffic.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/rlplanner/rlplanner/internal/httpapi"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("policy-cache", 0, "max cached policies (0 = default 128)")
	trainTimeout := flag.Duration("train-timeout", 0,
		"wall-clock budget per training run (0 = unbounded); sarsa and qlearning checkpoint a partial policy at the deadline")
	maxTraining := flag.Int("max-training", 0,
		"max concurrent cold-start trainings (0 = unlimited); requests beyond the cap get 503 + Retry-After")
	trainWorkers := flag.Int("train-workers", 0,
		"episode walkers per training run (0 = sequential); results are bit-identical for any worker count")
	autoDerive := flag.Bool("auto-derive", true,
		"warm-start cold trainings from the nearest cached policy on catalog near-miss")
	overlayBudget := flag.Int("overlay-budget", 0,
		"total bytes for per-user personalization overlays (0 = default 64 MiB); the least recently active overlays evict first")
	overlayCells := flag.Int("overlay-cells", 0,
		"max personalized action values per user overlay (0 = default)")
	policyDir := flag.String("policy-dir", "",
		"directory for the durable policy repository (empty disables); trained policies are written through crash-safely and reloaded on boot, and replicas sharing one directory train each key exactly once")
	preload := flag.String("preload", "",
		"boot manifest: a JSON array of plan requests to train or warm-load before serving (requires no flag ordering; works best with -policy-dir)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"grace period for in-flight requests after SIGTERM/SIGINT")
	pprofAddr := flag.String("pprof", "",
		"optional address for net/http/pprof on a separate listener (e.g. localhost:6060); empty disables profiling")
	profileContention := flag.Bool("profile-contention", false,
		"record mutex and block profiles (served at -pprof's /debug/pprof/mutex and /debug/pprof/block); small steady-state cost, leave off unless chasing lock contention")
	flag.Parse()

	if *profileContention {
		// Fraction 5 / 10µs threshold: coarse enough for production, fine
		// enough that a contended lock on the plan path shows up.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(10_000)
		if *pprofAddr == "" {
			log.Printf("rlplannerd: -profile-contention is on but -pprof is not; profiles are recorded but unreachable")
		}
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("rlplannerd pprof listening on http://%s/debug/pprof/", pln.Addr())
		go func() {
			// The profiler gets its own mux and listener so the API
			// surface never exposes /debug/pprof, whatever -addr binds.
			if err := http.Serve(pln, pprofMux()); err != nil {
				log.Printf("rlplannerd: pprof listener: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	log.Printf("rlplannerd listening on %s", ln.Addr())
	if err := serve(ln, stop, *drainTimeout, *preload,
		httpapi.WithPolicyCacheSize(*cache),
		httpapi.WithTrainBudget(*trainTimeout),
		httpapi.WithMaxTraining(*maxTraining),
		httpapi.WithTrainWorkers(*trainWorkers),
		httpapi.WithAutoDerive(*autoDerive),
		httpapi.WithOverlayBudget(*overlayBudget),
		httpapi.WithOverlayCells(*overlayCells),
		httpapi.WithPolicyDir(*policyDir),
	); err != nil {
		log.Fatal(err)
	}
}

// pprofMux routes the standard net/http/pprof handlers on a dedicated
// mux (the package's init only registers on http.DefaultServeMux, which
// the daemon deliberately does not serve).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs the API on ln until a stop signal arrives, then drains
// in-flight requests via http.Server.Shutdown bounded by drainTimeout
// (0 = wait indefinitely). It returns nil after a clean drain, the
// shutdown context's error when the grace period expires with requests
// still active (after force-closing them), or the listener's error.
// A non-empty preload names a boot manifest resolved before the
// listener starts accepting: with -policy-dir these keys come off disk
// in milliseconds on a warm boot, and a cold fleet trains each exactly
// once.
func serve(ln net.Listener, stop <-chan os.Signal, drainTimeout time.Duration, preload string, opts ...httpapi.Option) error {
	api := httpapi.New(opts...)
	if preload != "" {
		f, err := os.Open(preload)
		if err != nil {
			return err
		}
		n, err := api.Preload(context.Background(), f)
		f.Close()
		if err != nil {
			// Partial manifests are a warning, not a boot failure: the keys
			// that did resolve are warm, the rest train on first request.
			log.Printf("rlplannerd: preload: %d policies ready, some entries failed: %v", n, err)
		} else {
			log.Printf("rlplannerd: preload: %d policies ready", n)
		}
	}
	srv := &http.Server{Handler: api.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("rlplannerd: %v: draining in-flight requests (grace %s)", sig, drainTimeout)
		ctx := context.Background()
		if drainTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, drainTimeout)
			defer cancel()
		}
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
			return err
		}
		return nil
	}
}
