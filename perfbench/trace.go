package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of one scope (a workload loop or one layer's
// probe) in memory until the run writes them out. A span is a named
// interval plus the span that caused it, so every span of one request
// or one probe call shares a root. All tracer methods accept a nil
// receiver and then record nothing: untraced runs execute the same
// code with a nil tracer.
type tracer struct {
	scope string
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Scope string `json:"scope"`
	Name  string `json:"name"`
	// Parent is the id of the causing span, 0 for a root. A span's id
	// is its 1-based position in the output.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// newTracer reserves room for a probe's spans up front, so recording
// them does not allocate inside the probes' allocation counts.
func newTracer(scope string) *tracer {
	return &tracer{scope: scope, t0: time.Now(), spans: make([]span, 0, 256)}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Scope: t.scope, Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the length in seconds of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTimes returns, for every closed span named name, its duration
// minus the part covered by its closed children named child. Children
// of one span do not overlap here, so their lengths are summed.
func (t *tracer) selfTimes(name, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make(map[int]int64)
	for _, s := range t.spans {
		if s.Name == child && s.End >= 0 && s.Parent > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if c, ok := covered[i+1]; ok && s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start-c)/1e9)
		}
	}
	return out
}

// writeSpans stores the spans of every tracer as JSON lines. Ids and
// times are per scope.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		t.mu.Lock()
		for _, s := range t.spans {
			if err == nil {
				err = enc.Encode(s)
			}
		}
		t.mu.Unlock()
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
