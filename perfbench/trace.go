package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval of a traced run. Offsets count from the
// tracer's epoch. Spans of one operation share op; parent 0 marks an
// operation's root span.
//
// A replayed span did not run inside its parent: the benchmark repeats a
// call the handler made internally, after the handler returned, and lays
// the measured duration onto the parent's timeline (see tracer.replay).
// Self time therefore treats live and replayed children alike.
type span struct {
	id, parent int
	op         int
	name       string
	start, end time.Duration
	// cursor is the next free offset on this span's timeline for a
	// replayed child.
	cursor time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span of a run in memory; write dumps them when the
// run ends. It is used by one goroutine: traced runs drive one client.
type tracer struct {
	epoch time.Time
	spans []span // spans[i].id == i+1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// run times fn as a live span under parent and returns the span id.
func (t *tracer) run(op, parent int, name string, fn func()) int {
	start := t.now()
	fn()
	return t.add(span{parent: parent, op: op, name: name, start: start, end: t.now()})
}

// open starts a live span that close ends; for spans that contain other
// calls of the benchmark.
func (t *tracer) open(op, parent int, name string) int {
	return t.add(span{parent: parent, op: op, name: name, start: t.now()})
}

func (t *tracer) close(id int) { t.spans[id-1].end = t.now() }

// replay times fn and lays the span onto parent's timeline, right after
// the parent's previous replayed child: the handler made these calls in
// sequence inside its own span.
func (t *tracer) replay(parent int, name string, fn func()) int {
	start := t.now()
	fn()
	d := t.now() - start
	p := &t.spans[parent-1]
	at := p.cursor
	p.cursor += d
	return t.add(span{parent: parent, op: p.op, name: name, start: at, end: at + d})
}

// record adds an already measured live span.
func (t *tracer) record(op, parent int, name string, start, end time.Duration) int {
	return t.add(span{parent: parent, op: op, name: name, start: start, end: end})
}

func (t *tracer) add(s span) int {
	s.id = len(t.spans) + 1
	s.cursor = s.start
	t.spans = append(t.spans, s)
	return s.id
}

func (t *tracer) span(id int) span { return t.spans[id-1] }

// children indexes the spans by parent id.
func (t *tracer) children() map[int][]span {
	out := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover. Overlapping children count once, and a child's
// part outside the parent does not count.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return s.dur() - covered
}

// write dumps the spans as tab-separated lines: id, parent, op, name,
// start and end in nanoseconds from the run's start.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
