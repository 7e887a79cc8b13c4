// Package faultinject provides a scriptable fault-injection engine for
// exercising the serving stack's degradation ladder under test. The
// engine registers in the ordinary solver registry, so the full HTTP
// stack — singleflight store, breaker, admission control, fallback —
// exercises real faults through its production code paths.
//
// The engine is test-only by convention: nothing imports it outside
// _test files, so production binaries never register it. Each New call
// returns an unregister func for t.Cleanup, keeping the registry's
// duplicate-registration panic at bay across tests in one binary.
package faultinject

import (
	"context"
	"fmt"
	"io"
	"sync"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/engine"
)

// Mode scripts what the engine's Train calls do.
type Mode int

const (
	// OK trains instantly and serves a valid single-step plan.
	OK Mode = iota
	// Panic panics inside Train — the registry's Guard must catch it.
	Panic
	// Hang blocks Train until the training context is done (the budget
	// deadline) or Release is called.
	Hang
	// Malformed returns a policy whose Recommend yields an out-of-range
	// catalog index, detonating in the serving layer instead of Train.
	Malformed
	// FailN returns an error for the next N trainings (see FailTimes),
	// then behaves like OK.
	FailN
)

// Engine is a scriptable fault-injection solver. Script it with Set /
// FailTimes, observe it with Trainings and HangStarted. All methods are
// safe for concurrent use with in-flight trainings.
type Engine struct {
	name string

	mu       sync.Mutex
	mode     Mode
	failN    int
	trains   int
	released bool

	hung    chan struct{}
	release chan struct{}
}

// New registers a fault engine under name and returns it with the
// unregister func to defer in test cleanup.
func New(name string) (*Engine, func()) {
	e := &Engine{
		name:    name,
		hung:    make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	engine.Register(engine.Descriptor{
		Name:  name,
		Doc:   "scriptable fault-injection engine (tests only)",
		Train: e.train,
	})
	return e, func() { engine.Unregister(name) }
}

// Set scripts the behavior of subsequent Train calls.
func (e *Engine) Set(m Mode) {
	e.mu.Lock()
	e.mode = m
	e.mu.Unlock()
}

// FailTimes scripts the next n Train calls to fail, after which the
// engine succeeds — the shape retry/backoff tests need.
func (e *Engine) FailTimes(n int) {
	e.mu.Lock()
	e.mode = FailN
	e.failN = n
	e.mu.Unlock()
}

// Trainings returns how many Train calls the engine has received.
func (e *Engine) Trainings() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.trains
}

// HangStarted delivers one signal each time a Hang-mode training begins
// blocking, so tests can sequence against an in-flight hang.
func (e *Engine) HangStarted() <-chan struct{} { return e.hung }

// Release unblocks every current and future Hang-mode training, which
// then completes successfully. Idempotent.
func (e *Engine) Release() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.released {
		e.released = true
		close(e.release)
	}
}

func (e *Engine) train(ctx context.Context, inst *dataset.Instance, _ core.Options) (engine.Policy, error) {
	e.mu.Lock()
	e.trains++
	mode := e.mode
	if mode == FailN {
		if e.failN > 0 {
			e.failN--
		} else {
			mode = OK
		}
	}
	e.mu.Unlock()

	switch mode {
	case Panic:
		panic(fmt.Sprintf("faultinject %s: scripted panic", e.name))
	case Hang:
		select {
		case e.hung <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-e.release:
		}
	case FailN:
		return nil, fmt.Errorf("faultinject %s: scripted failure", e.name)
	}
	return &policy{
		name:      e.name,
		instance:  inst.Name,
		fp:        inst.Digest(),
		hard:      inst.Hard,
		start:     inst.StartIndex(),
		malformed: mode == Malformed,
	}, nil
}

// policy is the fault engine's artifact: a trivial one-step plan, or a
// deliberately corrupt one in Malformed mode.
type policy struct {
	name      string
	instance  string
	fp        string
	hard      constraints.Hard
	start     int
	malformed bool
}

func (p *policy) Engine() string               { return p.name }
func (p *policy) Instance() string             { return p.instance }
func (p *policy) Fingerprint() string          { return p.fp }
func (p *policy) Hard() constraints.Hard       { return p.hard }
func (p *policy) Degradation() string          { return "" }
func (p *policy) Episodes() int                { return 0 }
func (p *policy) WarmStart() (string, float64) { return "", 0 }

func (p *policy) Recommend(start int) ([]int, error) {
	if p.malformed {
		// An index far outside any catalog: the serving layer's panic
		// guard, not this package, must contain the resulting
		// out-of-range access.
		return []int{1 << 30}, nil
	}
	if start == engine.DefaultStart {
		start = p.start
	}
	return []int{start}, nil
}

func (p *policy) Save(io.Writer) error {
	return fmt.Errorf("faultinject %s: policies are not serializable", p.name)
}
