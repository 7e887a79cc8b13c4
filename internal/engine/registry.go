package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/resilience"
)

// TrainFunc runs one solver's training phase for a bound configuration.
type TrainFunc func(ctx context.Context, inst *dataset.Instance, opts core.Options) (Policy, error)

// Descriptor registers one solver.
type Descriptor struct {
	// Name is the canonical registry key ("sarsa", "eda", …).
	Name string
	// Aliases are alternative lookup names ("rl" for "sarsa", "vi" for
	// "valueiter", …). The empty string may alias the default engine.
	Aliases []string
	// Doc is a one-line description for discovery endpoints.
	Doc string
	// Tabular marks engines whose policies serialize their Q values;
	// procedural engines (EDA, OMEGA, gold) re-run their construction
	// when an artifact is loaded.
	Tabular bool
	// Train runs the solver.
	Train TrainFunc
}

var registry = struct {
	sync.RWMutex
	byName map[string]*Descriptor
	names  []string // canonical names, registration order
}{byName: map[string]*Descriptor{}}

// Register adds a solver to the registry. It panics on a duplicate name
// or alias — registration is an init-time wiring error, not a runtime
// condition.
func Register(d Descriptor) {
	if d.Name == "" || d.Train == nil {
		panic("engine: Register needs a name and a Train func")
	}
	registry.Lock()
	defer registry.Unlock()
	for _, key := range append([]string{d.Name}, d.Aliases...) {
		key = strings.ToLower(key)
		if _, dup := registry.byName[key]; dup {
			panic(fmt.Sprintf("engine: duplicate registration for %q", key))
		}
		dd := d
		registry.byName[key] = &dd
	}
	registry.names = append(registry.names, d.Name)
}

// Unregister removes an engine (canonical name or alias) together with
// every alias it was registered under. It exists for scoped test engines
// — the fault-injection harness registers a scriptable engine per test
// and removes it on cleanup, so repeated registrations in one binary
// never collide with Register's duplicate panic. Unknown names are a
// no-op. Production engines register in init and are never removed.
func Unregister(name string) {
	registry.Lock()
	defer registry.Unlock()
	d, ok := registry.byName[strings.ToLower(name)]
	if !ok {
		return
	}
	for _, key := range append([]string{d.Name}, d.Aliases...) {
		delete(registry.byName, strings.ToLower(key))
	}
	for i, n := range registry.names {
		if n == d.Name {
			registry.names = append(registry.names[:i], registry.names[i+1:]...)
			break
		}
	}
}

// lookup resolves a (case-insensitive) name or alias.
func lookup(name string) (*Descriptor, error) {
	registry.RLock()
	d, ok := registry.byName[strings.ToLower(name)]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return d, nil
}

// Canonical resolves a name or alias to the canonical engine name, so
// cache keys built from user input collapse "vi", "value-iteration" and
// "valueiter" onto one entry.
func Canonical(name string) (string, error) {
	d, err := lookup(name)
	if err != nil {
		return "", err
	}
	return d.Name, nil
}

// Names returns the canonical engine names, sorted.
func Names() []string {
	registry.RLock()
	out := append([]string(nil), registry.names...)
	registry.RUnlock()
	sort.Strings(out)
	return out
}

// Describe returns the registered descriptor for a name or alias.
func Describe(name string) (Descriptor, error) {
	d, err := lookup(name)
	if err != nil {
		return Descriptor{}, err
	}
	return *d, nil
}

// Train runs the named engine's training phase on inst inside the
// resilience boundary: the configured training budget
// (core.Options.TrainBudget) becomes a context deadline, and a solver
// panic is recovered into a typed *resilience.PanicError instead of
// unwinding into the caller — one corrupted run must poison one cache
// key, not the process.
func Train(ctx context.Context, name string, inst *dataset.Instance, opts core.Options) (Policy, error) {
	d, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if inst == nil {
		return nil, fmt.Errorf("engine %s: nil instance", d.Name)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine %s: %w", d.Name, err)
	}
	if opts.TrainBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TrainBudget)
		defer cancel()
	}
	return resilience.Guard("engine "+d.Name, func() (Policy, error) {
		return d.Train(ctx, inst, opts)
	})
}
