package main

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"nullgraph"
)

// The output checks run outside every timed interval. Each returns nil
// for a correct output and a description of the first fault otherwise.

// checkSimple rejects an endpoint outside [0, n), a self loop and a
// repeated edge.
func checkSimple(edges []nullgraph.Edge, n int) error {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		u, v := e.U, e.V
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return fmt.Errorf("edge %d (%d,%d) outside [0,%d)", i, u, v, n)
		}
		if u == v {
			return fmt.Errorf("edge %d is a self loop at %d", i, u)
		}
		if u > v {
			u, v = v, u
		}
		keys[i] = uint64(u)<<32 | uint64(v)
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("edge (%d,%d) occurs twice", keys[i]>>32, uint32(keys[i]))
		}
	}
	return nil
}

// checkGenerated accepts a simple graph on the distribution's vertices.
func checkGenerated(g *nullgraph.Graph, dist *nullgraph.DegreeDistribution) error {
	if want := int(dist.NumVertices()); g.NumVertices != want {
		return fmt.Errorf("generated %d vertices, want %d", g.NumVertices, want)
	}
	return checkSimple(g.Edges, g.NumVertices)
}

// checkShuffled accepts a simple graph with exactly the input's edge
// count and per-vertex degrees.
func checkShuffled(g *nullgraph.Graph, degrees []int64, edges int) error {
	if len(g.Edges) != edges || g.NumVertices != len(degrees) {
		return fmt.Errorf("shuffled graph has %d edges on %d vertices, want %d on %d", len(g.Edges), g.NumVertices, edges, len(degrees))
	}
	if err := checkSimple(g.Edges, g.NumVertices); err != nil {
		return err
	}
	got := make([]int64, len(degrees))
	for _, e := range g.Edges {
		got[e.U]++
		got[e.V]++
	}
	for v := range got {
		if got[v] != degrees[v] {
			return fmt.Errorf("vertex %d has degree %d, want %d", v, got[v], degrees[v])
		}
	}
	return nil
}

// checkDigraph accepts a digraph on n vertices with no self loop and no
// repeated arc.
func checkDigraph(g *nullgraph.Digraph, n int) error {
	if g.NumVertices != n {
		return fmt.Errorf("digraph has %d vertices, want %d", g.NumVertices, n)
	}
	keys := make([]uint64, len(g.Arcs))
	for i, a := range g.Arcs {
		if a.From < 0 || a.To < 0 || int(a.From) >= n || int(a.To) >= n {
			return fmt.Errorf("arc %d (%d,%d) outside [0,%d)", i, a.From, a.To, n)
		}
		if a.From == a.To {
			return fmt.Errorf("arc %d is a self loop at %d", i, a.From)
		}
		keys[i] = uint64(a.From)<<32 | uint64(a.To)
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("arc (%d,%d) occurs twice", keys[i]>>32, uint32(keys[i]))
		}
	}
	return nil
}

// checkPayload accepts a served graph whose payload parses, whose
// vertex count is the distribution's, and whose edge count is the one
// the X-Nullgraph-Edges header announces. A text payload must end in a
// newline, so a body cut inside its last line is caught too.
func checkPayload(body []byte, binary bool, h http.Header, vertices int) error {
	edges, err := strconv.Atoi(h.Get("X-Nullgraph-Edges"))
	if err != nil {
		return fmt.Errorf("X-Nullgraph-Edges: %v", err)
	}
	if v := h.Get("X-Nullgraph-Vertices"); v != strconv.Itoa(vertices) {
		return fmt.Errorf("X-Nullgraph-Vertices is %q, want %d", v, vertices)
	}
	var g *nullgraph.Graph
	if binary {
		g, err = nullgraph.ReadGraphBinary(bytes.NewReader(body))
	} else {
		if len(body) > 0 && body[len(body)-1] != '\n' {
			return fmt.Errorf("text payload ends inside a line")
		}
		g, err = nullgraph.ReadGraph(bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	if len(g.Edges) != edges {
		return fmt.Errorf("payload has %d edges, header says %d", len(g.Edges), edges)
	}
	// The text format carries no vertex count: it spans the highest
	// endpoint, which may be below the distribution's.
	if g.NumVertices > vertices || (binary && g.NumVertices != vertices) {
		return fmt.Errorf("payload has %d vertices, want %d", g.NumVertices, vertices)
	}
	return nil
}
