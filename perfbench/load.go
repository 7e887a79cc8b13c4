package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

type opKind uint8

const (
	opPlan     opKind = iota // POST /api/plan
	opBatch                  // POST /api/plan/batch
	opFeedback               // POST /api/feedback
)

var opPaths = [...]string{opPlan: "/api/plan", opBatch: "/api/plan/batch", opFeedback: "/api/feedback"}

// op is one precomputed request of a workload. Bodies are marshalled
// before timing starts; ops of one user share their bodies.
type op struct {
	kind   opKind
	body   []byte
	key    policyKey // the policy the request resolves
	starts []string  // batch walk starts
	user   int       // personalized user, -1 for none
	items  []string  // feedback: the rated plan
	useful bool      // feedback signal
	// quality marks the ops whose plans count toward plan_score_mean and
	// plan_valid_frac.
	quality bool
}

// conn issues requests to the handler in-process: no sockets and no
// net/http.Transport, so a measurement is the server's own cost. One
// request and one response writer per path are reused, so the
// benchmark's side allocates nothing per request.
type conn struct {
	h    http.Handler
	reqs [len(opPaths)]*http.Request
	body reqBody
	w    recorder
}

type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

func newConn(h http.Handler) *conn {
	c := &conn{h: h, w: recorder{h: make(http.Header)}}
	for k, path := range opPaths {
		r := httptest.NewRequest(http.MethodPost, path, nil)
		r.Header.Set("Content-Type", "application/json")
		r.Body = &c.body
		c.reqs[k] = r
	}
	return c
}

// exec serves one op and returns its status, the response body (valid
// until the next exec) and the handler's wall time.
func (c *conn) exec(o *op) (int, []byte, time.Duration) {
	r := c.reqs[o.kind]
	c.body.Reset(o.body)
	r.ContentLength = int64(len(o.body))
	c.w.reset()
	t0 := time.Now()
	c.h.ServeHTTP(&c.w, r)
	d := time.Since(t0)
	return c.w.status(), c.w.buf.Bytes(), d
}

// call issues a request outside the op stream (set-up, metrics).
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	w := &recorder{h: make(http.Header)}
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w.status(), append([]byte(nil), w.buf.Bytes()...)
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

func (w *recorder) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func (w *recorder) reset() {
	clear(w.h)
	w.code = 0
	w.buf.Reset()
}

// failed is the latency recorded for a failed request: it misses every
// latency limit.
const failed = time.Duration(math.MaxInt64)

// digest counts one distinct response body.
type digest struct {
	count int
	op    *op // the first op that received it
}

// slices is how many equal parts of a timed phase its samples are kept
// apart in, so that each timing can be taken per part (see sliced).
const slices = 10

// window is the record of one slice of a timed phase.
type window struct {
	planLat, fbLat latencies
	ops            int // operations started in the slice
}

// latencies is an append-only record kept outside the Go heap, in chunks
// mapped from the operating system. A run's records outgrow the server's
// live heap many times over; on the heap they would raise the
// collector's target as the run goes on and so change how often the
// server's garbage is collected.
type latencies struct {
	chunks [][]time.Duration
	mapped [][]byte // the mappings behind chunks
	n      int
}

// chunkLen is the number of latencies in one chunk (512 KiB).
const chunkLen = 1 << 16

func (l *latencies) add(d time.Duration) {
	i := l.n % chunkLen
	if i == 0 {
		l.chunks = append(l.chunks, l.newChunk())
	}
	l.chunks[len(l.chunks)-1][i] = d
	l.n++
}

// newChunk maps a chunk, or allocates it on the heap when the system
// refuses the mapping.
func (l *latencies) newChunk() []time.Duration {
	b, err := syscall.Mmap(-1, 0, chunkLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]time.Duration, chunkLen)
	}
	l.mapped = append(l.mapped, b)
	return unsafe.Slice((*time.Duration)(unsafe.Pointer(unsafe.SliceData(b))), chunkLen)
}

// release returns the latencies in the given unit, on the heap, and
// unmaps the chunks.
func (l *latencies) release(unit time.Duration) []float64 {
	out := make([]float64, 0, l.n)
	for i, c := range l.chunks {
		for _, d := range c[:min(chunkLen, l.n-i*chunkLen)] {
			out = append(out, float64(d)/float64(unit))
		}
	}
	for _, b := range l.mapped {
		_ = syscall.Munmap(b) // a failed unmap only leaves the chunk mapped
	}
	*l = latencies{}
	return out
}

// tally is one client's record of a timed phase.
type tally struct {
	win                 [slices]window
	attempted, failures int
	exhausted           bool // the op list ended before the deadline
	// digests holds each distinct 2xx plan response once: checks and
	// plan quality are computed from them after the timed phase.
	digests map[string]*digest
}

// note records op o, started in slice s.
func (t *tally) note(s int, o *op, code int, body []byte, d time.Duration) {
	t.attempted++
	w := &t.win[s]
	w.ops++
	ok := code/100 == 2
	if o.kind == opFeedback {
		ok = ok && json.Valid(body)
	}
	if !ok {
		t.failures++
		d = failed
	}
	if o.kind == opFeedback {
		w.fbLat.add(d)
		return
	}
	w.planLat.add(d)
	if !ok {
		return
	}
	if dg := t.digests[string(body)]; dg != nil {
		dg.count++
		return
	}
	t.digests[string(body)] = &digest{count: 1, op: o}
}

// planLats returns the plan latencies of every slice in the given unit
// and releases the records.
func (t *tally) planLats(unit time.Duration) []float64 {
	var out []float64
	for s := range t.win {
		out = append(out, t.win[s].planLat.release(unit)...)
		t.win[s].fbLat.release(unit)
	}
	return out
}

// drive runs a closed loop: each client sends its next op only after the
// previous one returned, until the deadline. A client at the end of its
// op list starts over unless the workload forbids repeats.
func drive(h http.Handler, lists [][]*op, d time.Duration, repeat bool) ([]*tally, time.Duration) {
	out := make([]*tally, len(lists))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range lists {
		out[i] = &tally{digests: make(map[string]*digest)}
		wg.Add(1)
		go func(ops []*op, t *tally) {
			defer wg.Done()
			c := newConn(h)
			for i := 0; ; i++ {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				if i == len(ops) {
					if !repeat {
						t.exhausted = true
						return
					}
					i = 0
				}
				code, body, lat := c.exec(ops[i])
				t.note(int(now.Sub(start)*slices/d), ops[i], code, body, lat)
			}
		}(lists[i], out[i])
	}
	wg.Wait()
	return out, time.Since(start)
}
