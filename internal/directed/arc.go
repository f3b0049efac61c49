// Package directed extends the library to directed graphs, the
// extrapolation the paper points to via Durak et al. [14] and the
// directed Havel-Hakimi of Erdős, Miklós and Toroczkai [15]:
//
//   - ArcList — the directed edge substrate (no self-loops / duplicate
//     arcs in the simple digraph space);
//   - JointDistribution — the {(out, in), count} analog of {D, N};
//   - Kleitman-Wang realization of a joint degree sequence;
//   - directed Chung-Lu baselines and the directed version of the
//     probability heuristic + edge-skipping pipeline, mixed by the
//     swap package's directed engine (swap.NewDirectedEngine), which
//     preserves every vertex's in- AND out-degree.
//
// The "certain considerations": swap proposals have a single legal
// pairing ((u→v),(x→y) ⇒ (u→y),(x→v) — the other exchange would move
// degree between in and out sides), arcs are keyed by their ordered
// pair, and the diagonal class spaces exclude exactly the self-pairs.
package directed

import (
	"fmt"
	"sort"

	"nullgraph/internal/par"
)

// Arc is a directed edge From → To.
type Arc struct {
	From, To int32
}

// IsLoop reports a self-arc.
func (a Arc) IsLoop() bool { return a.From == a.To }

// Key packs the ordered pair into a uint64. Unlike the undirected edge
// key there is no canonicalization: (u,v) and (v,u) are distinct arcs.
func (a Arc) Key() uint64 {
	return uint64(uint32(a.From))<<32 | uint64(uint32(a.To))
}

// ArcFromKey unpacks a Key.
func ArcFromKey(k uint64) Arc {
	return Arc{From: int32(uint32(k >> 32)), To: int32(uint32(k))}
}

// String renders the arc.
func (a Arc) String() string { return fmt.Sprintf("(%d->%d)", a.From, a.To) }

// ArcList is a mutable directed graph as an arc slice.
type ArcList struct {
	Arcs        []Arc
	NumVertices int
}

// NewArcList validates endpoints and wraps the slice.
func NewArcList(arcs []Arc, numVertices int) *ArcList {
	for _, a := range arcs {
		if a.From < 0 || a.To < 0 || int(a.From) >= numVertices || int(a.To) >= numVertices {
			panic("directed: arc endpoint out of range")
		}
	}
	return &ArcList{Arcs: arcs, NumVertices: numVertices}
}

// NumArcs returns the arc count.
func (al *ArcList) NumArcs() int { return len(al.Arcs) }

// Clone deep-copies the list.
func (al *ArcList) Clone() *ArcList {
	arcs := make([]Arc, len(al.Arcs))
	copy(arcs, al.Arcs)
	return &ArcList{Arcs: arcs, NumVertices: al.NumVertices}
}

// Degrees computes out- and in-degree arrays in parallel.
func (al *ArcList) Degrees(p int) (out, in []int64) {
	p = par.Workers(p)
	out = make([]int64, al.NumVertices)
	in = make([]int64, al.NumVertices)
	ranges := par.Split(len(al.Arcs), p)
	if len(ranges) <= 1 {
		for _, a := range al.Arcs {
			out[a.From]++
			in[a.To]++
		}
		return out, in
	}
	outs := make([][]int64, len(ranges))
	ins := make([][]int64, len(ranges))
	par.ForRange(len(al.Arcs), p, func(w int, r par.Range) {
		lo := make([]int64, al.NumVertices)
		li := make([]int64, al.NumVertices)
		for i := r.Begin; i < r.End; i++ {
			lo[al.Arcs[i].From]++
			li[al.Arcs[i].To]++
		}
		outs[w], ins[w] = lo, li
	})
	par.For(al.NumVertices, p, func(v int) {
		var so, si int64
		for w := range outs {
			so += outs[w][v]
			si += ins[w][v]
		}
		out[v], in[v] = so, si
	})
	return out, in
}

// Simplicity reports loops and duplicate arcs.
type Simplicity struct {
	SelfLoops     int
	DuplicateArcs int
}

// IsSimple reports a simple digraph.
func (s Simplicity) IsSimple() bool { return s.SelfLoops == 0 && s.DuplicateArcs == 0 }

// CheckSimplicity counts self-arcs and repeated ordered pairs.
func (al *ArcList) CheckSimplicity() Simplicity {
	var s Simplicity
	keys := make([]uint64, 0, len(al.Arcs))
	for _, a := range al.Arcs {
		if a.IsLoop() {
			s.SelfLoops++
			continue
		}
		keys = append(keys, a.Key())
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			s.DuplicateArcs++
		}
	}
	return s
}

// Simplify returns a copy with loops and duplicate arcs removed plus
// the input's simplicity report.
func (al *ArcList) Simplify() (*ArcList, Simplicity) {
	rep := al.CheckSimplicity()
	seen := make(map[uint64]struct{}, len(al.Arcs))
	out := make([]Arc, 0, len(al.Arcs))
	for _, a := range al.Arcs {
		if a.IsLoop() {
			continue
		}
		k := a.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, a)
	}
	return &ArcList{Arcs: out, NumVertices: al.NumVertices}, rep
}

// EqualAsSets compares arc multisets.
func (al *ArcList) EqualAsSets(other *ArcList) bool {
	if len(al.Arcs) != len(other.Arcs) {
		return false
	}
	a := make([]uint64, len(al.Arcs))
	b := make([]uint64, len(other.Arcs))
	for i := range al.Arcs {
		a[i] = al.Arcs[i].Key()
		b[i] = other.Arcs[i].Key()
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reciprocity returns the fraction of arcs whose reverse arc is also
// present — a standard digraph null-model statistic [14].
func (al *ArcList) Reciprocity() float64 {
	if len(al.Arcs) == 0 {
		return 0
	}
	present := make(map[uint64]struct{}, len(al.Arcs))
	for _, a := range al.Arcs {
		present[a.Key()] = struct{}{}
	}
	var recip int
	for _, a := range al.Arcs {
		if a.IsLoop() {
			continue
		}
		if _, ok := present[(Arc{From: a.To, To: a.From}).Key()]; ok {
			recip++
		}
	}
	return float64(recip) / float64(len(al.Arcs))
}
