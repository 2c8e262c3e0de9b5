package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code. Spans of one cell or request share Trace; Parent is the ID
// of the span that caused this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Cell   string  `json:"cell,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Aggregate marks a span synthesized from accumulated phase time:
	// the engine's phases interleave epoch by epoch, so their totals
	// are laid end to end from the parent's start rather than placed
	// at the instants they ran.
	Aggregate bool `json:"aggregate,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes call the same code. It is safe for
// concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// add records a finished span and returns its ID.
func (t *tracer) add(name, cell string, parent, trace int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Cell: cell,
		Start: t.us(start), End: t.us(end)})
	return id
}

// addAggregate records a child of parent lasting secs, laid after the
// parent's earlier aggregate children.
func (t *tracer) addAggregate(name, cell string, parent, trace int, offsetUS, secs float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Cell: cell,
		Start: p.Start + offsetUS, End: p.Start + offsetUS + secs*1e6, Aggregate: true})
}

// write stores the spans as JSON lines in dir and returns the path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
