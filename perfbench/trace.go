package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Name is
// "<layer>.<call>"; Req groups the spans of one control-plane request.
type span struct {
	Name   string  `json:"name"`
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Req    uint64  `json:"req,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[uint64]int // span id -> index in spans, until ended
	next  uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[uint64]int{}}
}

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent, req uint64) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: t.next, Parent: parent, Req: req, Start: now})
	return t.next
}

// end closes span id.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = now
		delete(t.open, id)
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent uint64, fn func() error) error {
	id := t.begin(name, parent, 0)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns each layer's self time in seconds: for every span,
// its duration minus the part of it that its child spans cover (children
// running in parallel are merged, not double-counted), summed by the
// layer prefix of the span name.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += self
	}
	return out
}

// count returns how many spans were recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations (seconds) of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total := 0.0
	curS, curE := lo, lo
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}
