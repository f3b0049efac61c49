package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"nullgraph"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkNames fails unless got holds exactly the metrics of want, each
// with its unit.
func checkNames(t *testing.T, label string, got map[string]metric, want []specMetric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", label, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: emitted %d metrics %v, BENCHMARK.json lists %d", label, len(got), names, len(want))
	}
}

// TestEveryMetricEmitted runs every workload at tiny size, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names, with correct outputs.
func TestEveryMetricEmitted(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	// The .wP metrics need a second worker; a 1-core host time-slices it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for _, sw := range s.Workloads {
		w, ok := lookup(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the benchmark", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			label := sw.Name + " trace=" + strconv.FormatBool(traced)
			res, info, _, err := measure(w, 5, 300*time.Millisecond, traced, tinySize)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d notices=%v", label, res.Correct, res.Attempted, res.Failed, info["notices"])
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			checkNames(t, label, res.Metrics, want)
			for n, m := range res.Metrics {
				if n != "trace.overhead_frac" && (m.Value != m.Value || m.Value < 0) {
					t.Errorf("%s: metric %s = %v", label, n, m.Value)
				}
			}
		}
	}
}

// TestOneCoreOmitsWideMetrics checks that a 1-core host gets a notice
// instead of .wP numbers.
func TestOneCoreOmitsWideMetrics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var notices []string
	if ws := widths(&notices); len(ws) != 1 || ws[0] != 1 || len(notices) != 1 {
		t.Fatalf("widths at GOMAXPROCS=1: %v, notices %v", ws, notices)
	}
}

// ring is a simple graph: the cycle on n vertices plus the chords
// (i, i+2) for even i.
func ring(n int) *nullgraph.Graph {
	var edges []nullgraph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, nullgraph.Edge{U: int32(i), V: int32((i + 1) % n)})
		if i%2 == 0 {
			edges = append(edges, nullgraph.Edge{U: int32(i), V: int32((i + 2) % n)})
		}
	}
	return nullgraph.NewGraph(edges, n)
}

// TestChecksRejectCorruption corrupts correct outputs one way at a time
// and expects every output check to reject each.
func TestChecksRejectCorruption(t *testing.T) {
	g := ring(12)
	deg, m := degreesOf(g), len(g.Edges)
	if err := checkShuffled(g, deg, m); err != nil {
		t.Fatalf("intact graph rejected: %v", err)
	}
	corrupt := func(f func(e []nullgraph.Edge)) *nullgraph.Graph {
		c := g.Clone()
		f(c.Edges)
		return c
	}
	cases := map[string]*nullgraph.Graph{
		"duplicated edge": corrupt(func(e []nullgraph.Edge) { e[1] = e[0] }),
		// (0,2) becomes (0,5): still simple, vertex 2 loses a degree and
		// vertex 5 gains one.
		"changed degree": corrupt(func(e []nullgraph.Edge) { e[1].V = 5 }),
		"self loop":      corrupt(func(e []nullgraph.Edge) { e[0].V = e[0].U }),
	}
	for name, c := range cases {
		if checkShuffled(c, deg, m) == nil {
			t.Errorf("checkShuffled accepted a %s", name)
		}
	}
	// Duplicating an edge also moves degrees; the simplicity check
	// must catch it on its own.
	if checkSimple(cases["duplicated edge"].Edges, 12) == nil {
		t.Error("checkSimple accepted a duplicated edge")
	}
	if checkShuffled(nullgraph.NewGraph(g.Edges[1:], 12), deg, m) == nil {
		t.Error("checkShuffled accepted a missing edge")
	}

	dist := nullgraph.DistributionOf(g, 1)
	if err := checkGenerated(g, dist); err != nil {
		t.Fatalf("intact generated graph rejected: %v", err)
	}
	if checkGenerated(cases["duplicated edge"], dist) == nil {
		t.Error("checkGenerated accepted a duplicated edge")
	}
	if checkGenerated(nullgraph.NewGraph(g.Edges, 13), dist) == nil {
		t.Error("checkGenerated accepted a wrong vertex count")
	}

	arcs := []nullgraph.Arc{{From: 0, To: 1}, {From: 1, To: 0}, {From: 2, To: 3}}
	if err := checkDigraph(nullgraph.NewDigraph(arcs, 4), 4); err != nil {
		t.Fatalf("intact digraph rejected: %v", err)
	}
	for name, bad := range map[string][]nullgraph.Arc{
		"duplicated arc": {{From: 0, To: 1}, {From: 0, To: 1}},
		"self loop":      {{From: 2, To: 2}},
	} {
		if checkDigraph(nullgraph.NewDigraph(bad, 4), 4) == nil {
			t.Errorf("checkDigraph accepted a %s", name)
		}
	}
	if checkDigraph(nullgraph.NewDigraph(arcs, 4), 5) == nil {
		t.Error("checkDigraph accepted a wrong vertex count")
	}

	h := http.Header{}
	h.Set("X-Nullgraph-Edges", strconv.Itoa(m))
	h.Set("X-Nullgraph-Vertices", "12")
	var bin, text bytes.Buffer
	if err := nullgraph.WriteGraphBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if err := nullgraph.WriteGraph(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := checkPayload(bin.Bytes(), true, h, 12); err != nil {
		t.Fatalf("intact binary payload rejected: %v", err)
	}
	if err := checkPayload(text.Bytes(), false, h, 12); err != nil {
		t.Fatalf("intact text payload rejected: %v", err)
	}
	if checkPayload(bin.Bytes()[:bin.Len()-8], true, h, 12) == nil {
		t.Error("checkPayload accepted a binary payload truncated by one edge")
	}
	if checkPayload(bin.Bytes()[:bin.Len()-3], true, h, 12) == nil {
		t.Error("checkPayload accepted a binary payload truncated inside an edge")
	}
	if checkPayload(text.Bytes()[:text.Len()-2], false, h, 12) == nil {
		t.Error("checkPayload accepted a text payload truncated inside a line")
	}
	if checkPayload(bin.Bytes(), true, h, 13) == nil {
		t.Error("checkPayload accepted a payload with the wrong vertex count")
	}
}
