package lfr

import (
	"fmt"
	"sort"

	"nullgraph/internal/core"
	"nullgraph/internal/graph"
)

// GenerateOverlapping builds a graph with *overlapping* communities —
// the AGM-style structure Section VI sketches ("hierarchical and
// overlapping network structures ... while retaining a global degree
// distribution"). Each vertex may belong to any number of communities;
// its degree is split as:
//
//   - a fraction mu goes to the global external layer,
//   - the remaining (1−mu)·d is divided equally among the vertex's
//     memberships (largest-remainder rounding keeps the split exact);
//     vertices with no membership spend everything externally.
//
// Every community's subgraph and the external graph are generated with
// the core pipeline, then unioned with duplicate edges erased.
func GenerateOverlapping(degrees []int64, memberships [][]int32, mu float64, opt core.Options) (*Result, error) {
	n := len(degrees)
	if n == 0 {
		return nil, fmt.Errorf("lfr: empty degree sequence")
	}
	if mu < 0 || mu > 1 {
		return nil, fmt.Errorf("lfr: mu = %v out of [0,1]", mu)
	}
	// memberCount[v] = how many communities contain v.
	memberCount := make([]int64, n)
	for ci, members := range memberships {
		for _, v := range members {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("lfr: community %d contains out-of-range vertex %d", ci, v)
			}
			memberCount[v]++
		}
	}

	// Per-community split arrays plus the external split.
	external := make([]int64, n)
	internalBudget := make([]int64, n)
	communitySplit := make([][]int64, len(memberships))
	for ci := range communitySplit {
		communitySplit[ci] = make([]int64, n)
	}
	for v := 0; v < n; v++ {
		d := degrees[v]
		if memberCount[v] == 0 {
			external[v] = d
			continue
		}
		internal := int64(float64(d) * (1 - mu))
		external[v] = d - internal
		internalBudget[v] = internal
	}
	// Second pass: walk memberships and hand each (community, vertex)
	// slot its share.
	slotIndex := make([]int64, n)
	for ci, members := range memberships {
		for _, v := range members {
			total := internalBudget[v]
			k := memberCount[v]
			base := total / k
			if slotIndex[v] < total%k {
				base++
			}
			communitySplit[ci][v] = base
			slotIndex[v]++
		}
	}

	res := &Result{Degrees: degrees, Communities: memberships}
	var edges []graph.Edge
	for ci, members := range memberships {
		groupEdges, dropped, err := generateGroup(members, communitySplit[ci], opt, uint64(ci)+0xabcdef, nil)
		if err != nil {
			return nil, fmt.Errorf("lfr: overlapping community %d: %w", ci, err)
		}
		res.DroppedStubs += dropped
		edges = append(edges, groupEdges...)
	}
	all := allVertices(int64(n))
	extEdges, dropped, err := generateGroup(all, external, opt, 0x9e3779b9, nil)
	if err != nil {
		return nil, fmt.Errorf("lfr: external layer: %w", err)
	}
	res.DroppedStubs += dropped
	edges = append(edges, extEdges...)

	el := graph.NewEdgeList(edges, n)
	simple, rep := el.Simplify()
	res.DuplicateEdges = rep.MultiEdges
	res.Graph = simple
	res.ObservedMu = observedOverlapMu(simple, memberships, n)
	return res, nil
}

// observedOverlapMu is the fraction of edges whose endpoints share NO
// community.
func observedOverlapMu(el *graph.EdgeList, memberships [][]int32, n int) float64 {
	if el.NumEdges() == 0 {
		return 0
	}
	// Sorted membership lists per vertex for fast intersection.
	perVertex := make([][]int32, n)
	for ci, members := range memberships {
		for _, v := range members {
			perVertex[v] = append(perVertex[v], int32(ci))
		}
	}
	for v := range perVertex {
		sort.Slice(perVertex[v], func(a, b int) bool { return perVertex[v][a] < perVertex[v][b] })
	}
	shares := func(a, b []int32) bool {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				return true
			}
		}
		return false
	}
	external := 0
	for _, e := range el.Edges {
		if !shares(perVertex[e.U], perVertex[e.V]) {
			external++
		}
	}
	return float64(external) / float64(el.NumEdges())
}
