// Command perfbench is the repository benchmark. It drives the HTTP
// server's handler in-process — precomputed request bodies, no sockets —
// with one of four seeded workloads, checks every served plan it can
// against the library's own Policy.Recommend, and prints the metrics as
// one JSON object on its last line of output.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload builtin-warm --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of a closed loop from
// up to one client per CPU. With --trace 1 it runs the same operation
// sequence from one client, replays every operation through the public
// calls of each layer and reports the per-layer metrics. README.md
// describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times an untraced run sets its workload up, each
// in a fresh process so process-global caches start empty; setup_s is
// the median.
const setupReps = 3

// clients is the closed loop's client count. One client leaves the
// reference host's second CPU to the garbage collector and the runtime.
// With a client per CPU the clients and the collector contend for both
// CPUs, catalog-8k walks slow each other through the shared cache, and
// on runs of the same code throughput and latency spread two to four
// times as much.
const clients = 1

// tracedShare is the part of a traced run's measured phase that is
// traced; the rest of the sequence then runs untraced as the base of
// trace.overhead_frac.
const tracedShare = 0.75

// maxTracedOps bounds the spans a traced run holds in memory.
const maxTracedOps = 40_000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: builtin-warm, catalog-8k, personalized or cold-start")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once and print its set-up seconds")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w := workloads[*name]
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)

	if *setupOnly {
		b, err := newBench(w, dir)
		if err != nil {
			return 1, err
		}
		d, err := b.start()
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "setup_s=%v\n", d.Seconds())
		return 0, nil
	}

	fmt.Fprintln(stdout, "host:", hostFacts())
	measure := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, measure, dir, stdout)
	} else {
		res, err = timedRun(w, *seed, measure, dir, stdout)
	}
	if err != nil {
		return 1, err
	}
	for k, m := range res.Metrics {
		res.Metrics[k] = metric{finite(m.Value), m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1, errors.New("served plans differ from the library's")
	}
	return 0, nil
}

func newBench(w *workload, dir string) (*bench, error) {
	b := &bench{w: w, dir: dir, plans: make(map[policyKey][]string)}
	if w.prepare == nil {
		return b, nil
	}
	return b, w.prepare(b)
}

// start builds the server and runs the workload's set-up, returning its
// wall time.
func (b *bench) start() (time.Duration, error) {
	t0 := time.Now()
	b.srv = b.w.server(filepath.Join(b.dir, "policies"))
	b.h = b.srv.Handler()
	b.c = newConn(b.h)
	err := b.w.setup(b)
	if err == nil && b.w.feedback != nil {
		err = b.warmFeedback()
	}
	return time.Since(t0), err
}

// timedRun measures the end-to-end metrics: set-up (in fresh processes),
// then a closed loop for the measured phase, then the checks and the
// live heap.
func timedRun(w *workload, seed int64, measure time.Duration, dir string, stdout io.Writer) (result, error) {
	var setups []float64
	for i := 1; i < setupReps; i++ {
		s, err := setupChild(w.name, seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	b, err := newBench(w, dir)
	if err != nil {
		return result{}, err
	}
	d, err := b.start()
	if err != nil {
		return result{}, err
	}
	setups = append(setups, d.Seconds())

	b.catalogSpec = nil
	lists := w.ops(b, seed, clients)
	runtime.GC()
	tallies, elapsed := drive(b.h, lists, measure, w.repeat)
	lists = nil

	res := result{Correct: true}
	var plan, fb [slices][]float64
	var rates []float64
	ops, plans, posts := 0, 0, 0
	for s := range slices {
		n := 0
		for _, t := range tallies {
			win := &t.win[s]
			plan[s] = append(plan[s], win.planLat.release(time.Millisecond)...)
			fb[s] = append(fb[s], win.fbLat.release(time.Millisecond)...)
			n += win.ops
		}
		rates = append(rates, float64(n)/(measure.Seconds()/slices))
		ops, plans, posts = ops+n, plans+len(plan[s]), posts+len(fb[s])
	}
	for _, t := range tallies {
		res.Attempted += t.attempted
		res.Failed += t.failures
		if t.exhausted {
			return result{}, fmt.Errorf("the operation list ran out before %v", measure)
		}
	}
	if plans == 0 || posts == 0 {
		return result{}, fmt.Errorf("no plan or feedback requests completed in %v", measure)
	}
	latency := map[string]metric{
		"plan_p50_ms":     {sliced(plan[:], 0.5), "ms"},
		"plan_p90_ms":     {sliced(plan[:], 0.9), "ms"},
		"feedback_p50_ms": {sliced(fb[:], 0.5), "ms"},
		"feedback_p90_ms": {sliced(fb[:], 0.9), "ms"},
	}
	plan, fb = [slices][]float64{}, [slices][]float64{}
	q, undecodable, err := b.checkServed(context.Background(), tallies)
	res.Failed += undecodable
	if err != nil {
		res.Correct = false
		fmt.Fprintln(stdout, "check failed:", err)
	}
	// Only the server stays reachable for the heap measurement.
	tallies, b.catalog = nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(b.srv)

	fmt.Fprintf(stdout, "samples: %d plan requests, %d feedback requests, %d operations in %.2fs, %d distinct plans for quality, setup %v s\n",
		plans, posts, ops, elapsed.Seconds(), q.n, setups)
	res.Metrics = latency
	for k, m := range map[string]metric{
		"ops_per_s":       {median(rates), "1/s"},
		"plan_score_mean": {q.scoreMean(), "score"},
		"plan_valid_frac": {q.validFrac(), "frac"},
		"ok_frac":         {ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)), "frac"},
		"setup_s":         {median(setups), "s"},
		"heap_live_mib":   {float64(ms.HeapAlloc) / (1 << 20), "MiB"},
	} {
		res.Metrics[k] = m
	}
	return res, nil
}

// tracedRun reports the per-layer metrics: one client runs the
// workload's set-up and sequence with every operation traced and
// replayed, then the rest of the sequence untraced as the base of the
// tracing overhead and the allocation count.
func tracedRun(w *workload, seed int64, measure time.Duration, dir string, stdout io.Writer) (result, error) {
	b, err := newBench(w, dir)
	if err != nil {
		return result{}, err
	}
	if b.rp, err = newReplayer(b, filepath.Join(dir, "replay-repo")); err != nil {
		return result{}, err
	}
	rp := b.rp
	if _, err := b.start(); err != nil {
		return result{}, err
	}
	// Traced runs are one client, like the closed loop.
	seq := w.ops(b, seed, 1)[0]
	res := result{Correct: true}
	end := time.Now().Add(time.Duration(tracedShare * float64(measure)))
	i := 0
	for ; i < maxTracedOps && time.Now().Before(end); i++ {
		if i == len(seq) && !w.repeat {
			break
		}
		rp.do(b.c, seq[i%len(seq)], phaseTimed)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rest := time.Duration((1 - tracedShare) * float64(measure))
	from := i % len(seq)
	if !w.repeat {
		from = min(i, len(seq))
	}
	tallies, _ := drive(b.h, [][]*op{seq[from:]}, rest, w.repeat)
	runtime.ReadMemStats(&m1)
	t := tallies[0]
	var base time.Duration
	if lat := t.planLats(1); len(lat) > 0 {
		base = time.Duration(median(lat))
	}
	allocs := ratio(float64(m1.Mallocs-m0.Mallocs), float64(t.attempted))
	res.Attempted += t.attempted
	res.Failed += t.failures

	for _, o := range rp.ops {
		res.Attempted++
		if !o.ok {
			res.Failed++
		}
	}
	code, body := call(b.h, http.MethodGet, "/api/metrics", nil)
	var server map[string]float64
	if code != http.StatusOK {
		return result{}, fmt.Errorf("GET /api/metrics: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &server); err != nil {
		return result{}, fmt.Errorf("decode /api/metrics: %w", err)
	}
	res.Metrics = rp.layerMetrics(base, server, allocs)
	if rp.mismatch != nil {
		res.Correct = false
		fmt.Fprintln(stdout, "check failed:", rp.mismatch)
	}
	out := filepath.Join(".bench_build", "trace-"+w.name+".tsv")
	if err := rp.t.write(out); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "samples: %d traced operations, %d untraced, %d spans written to %s\n",
		len(rp.ops), t.attempted, len(rp.t.spans), out)
	return res, nil
}

// setupChild sets the workload up in a fresh process and returns its
// set-up seconds.
func setupChild(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	v, ok := strings.CutPrefix(lines[len(lines)-1], "setup_s=")
	if !ok {
		return 0, fmt.Errorf("set-up process printed %q", out)
	}
	return strconv.ParseFloat(v, 64)
}

// hostFacts describes where the numbers come from. GOMAXPROCS is stated
// because Go before 1.25 ignores a container's CPU quota.
func hostFacts() string {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"clients":    clients,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				facts["commit"] = s.Value
			case "vcs.modified":
				facts["modified"] = s.Value == "true"
			}
		}
	}
	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, "%s=%v ", k, facts[k])
	}
	return strings.TrimSpace(buf.String())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
