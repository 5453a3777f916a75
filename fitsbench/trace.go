package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one op share its op id; Parent is the id of the
// enclosing span (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory for the length of a run. A nil tracer
// records nothing, so untraced runs pay one nil check per call site. It is
// safe for concurrent use: fitsd-mix records spans from the load
// generator's goroutines and from the server's workers.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-measured span (a server-side interval read from a
// job's status) and returns its id.
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0))})
	return len(t.spans)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total float64 // ms
	Self  float64 // ms: total minus the time covered by child spans
}

// Mean is the mean duration of one call, in ms.
func (lt layerTime) Mean() float64 {
	if lt.Count == 0 {
		return 0
	}
	return lt.Total / float64(lt.Count)
}

// byName indexes selfTimes by span name.
func byName(spans []span) map[string]layerTime {
	by := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		by[lt.Name] = lt
	}
	return by
}

// selfTimes computes each span's self time — its duration minus the part
// of its interval that its children cover — and aggregates by name, in
// name order. Open spans are ignored.
func selfTimes(spans []span) []layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerTime{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers; overlapping children (concurrent work) count once.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := 0.0
	curLo, curHi := -1.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %12s\n", "span", "count", "total ms", "self ms", "self ms/call")
	for _, lt := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f %12.4f\n", lt.Name, lt.Count, lt.Total, lt.Self, lt.Self/float64(lt.Count))
	}
}

// reportSpans prints the self-time table of a traced run and writes its
// spans to the configured trace directory.
func reportSpans(c config, spans []span) error {
	printSelfTimes(c.Out, spans)
	if c.TraceDir == "" {
		return nil
	}
	p, err := writeSpans(c.TraceDir, fmt.Sprintf("%s-seed%d.jsonl", c.Workload, c.Seed), spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "  spans written to %s\n", p)
	return nil
}

// writeSpans writes the spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
