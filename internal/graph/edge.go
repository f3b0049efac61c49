// Package graph provides the graph substrate shared by every generator:
// packed undirected edges, edge lists, degree sequences, CSR adjacency,
// simplicity checks, summary statistics, and edge-list I/O.
//
// Vertices are int32 (the paper packs two 32-bit vertex IDs into one
// 64-bit hash-table key; we keep the same representation throughout so
// edges move through the pipeline without re-encoding).
package graph

import "fmt"

// Edge is an undirected edge between vertices U and V. The zero value is
// the (0,0) self-loop; code that treats an Edge as "absent" should track
// that separately.
type Edge struct {
	U, V int32
}

// Canonical returns the edge with endpoints ordered so U <= V. Two
// undirected edges are equal iff their canonical forms are equal. It
// orders with min and max rather than a branch: a swap leaves each
// edge's stored orientation a coin flip, and a mispredicted branch in
// front of every hash-table probe stalls the misses the probes overlap.
//
//nullgraph:hotpath
func (e Edge) Canonical() Edge {
	return Edge{U: min(e.U, e.V), V: max(e.U, e.V)}
}

// IsLoop reports whether the edge is a self-loop.
//
//nullgraph:hotpath
func (e Edge) IsLoop() bool { return e.U == e.V }

// Key packs the canonical form into a single uint64 (u in the high 32
// bits). This is the hash-table key format from the paper.
//
//nullgraph:hotpath
func (e Edge) Key() uint64 {
	c := e.Canonical()
	return uint64(uint32(c.U))<<32 | uint64(uint32(c.V))
}

// EdgeFromKey unpacks a key produced by Edge.Key.
func EdgeFromKey(k uint64) Edge {
	return Edge{U: int32(uint32(k >> 32)), V: int32(uint32(k))}
}

// String renders the edge as "(u,v)".
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }
