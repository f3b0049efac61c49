// Package permute implements random permutations of slices: a serial
// Fisher–Yates baseline and the parallel algorithm of Shun, Gu,
// Blelloch, Fineman and Gibbons ("Sequential random permutation, list
// contraction and tree contraction are highly parallel", SODA 2015),
// which the paper uses to permute the edge list before every swap
// iteration.
//
// The parallel algorithm executes the exact dependence structure of the
// sequential "inside-out" shuffle
//
//	for i = 0..n-1: swap(A[i], A[H[i]])  with H[i] uniform in [i, n)
//
// by repeatedly letting each uncommitted iteration i reserve the two
// cells it touches with a priority-writeMin, then committing iterations
// that hold both their reservations. Given the same swap-target array H,
// the output is bit-identical to the serial loop; randomness enters only
// through H.
//
// # Scratch reuse
//
// The reservation algorithm needs O(n) scratch (reservations, two
// pending buffers, per-worker loser lists), held in a Scratch that
// per-element-type Appliers share. They allocate only on first use or
// growth and are bit-identical to the serial shuffle no matter how
// dirty the reused buffers are (see the buffer invariants on Scratch).
package permute

import (
	"math"
	"sync/atomic"

	"nullgraph/internal/par"
	"nullgraph/internal/rng"
)

// FisherYates shuffles data uniformly at random using the provided
// source. This is the serial baseline of the permutation ablation.
func FisherYates[T any](r *rng.Source, data []T) {
	for i := len(data) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		data[i], data[j] = data[j], data[i]
	}
}

// pollEvery is the block length of the cancelable loops: a non-nil
// stop is polled once per block, outside the per-element loop.
const pollEvery = 8192

// FillTargets fills h[begin:end) — worker w's chunk — with the
// deterministic inside-out swap targets for (seed, len(h)): h[i]
// uniform in [i, len(h)). The per-worker stream depends only on
// (seed, w), so any execution that splits [0, len(h)) into the same
// chunks produces the same array. The worker's source lives on the
// stack; the call does not allocate.
//
// A tripped stop (nil never trips) ends the fill at the next block
// boundary. What was written is a prefix of the untripped stream:
// polling never consumes randomness.
//
//nullgraph:hotpath
func FillTargets(h []int32, seed uint64, w, begin, end int, stop *par.Stop) {
	var src rng.Block
	src.Reseed(rng.Mix64(seed) ^ rng.Mix64(uint64(w)+0x51ed270b))
	n := len(h)
	//nullgraph:cancelable
	for b := begin; b < end; b += pollEvery {
		if stop.Stopped() {
			return
		}
		for i, e := b, min(b+pollEvery, end); i < e; i++ {
			h[i] = int32(i) + int32(src.Uint64n(uint64(n-i)))
		}
	}
}

// targets fills h with the inside-out swap targets via per-worker
// streams over contiguous chunks, so the permutation is deterministic
// for fixed (seed, p).
func targets(seed uint64, n, p int, h []int32) {
	par.ForRange(n, p, func(w int, r par.Range) {
		FillTargets(h[:n], seed, w, r.Begin, r.End, nil)
	})
}

// TargetsInto is Targets writing into a caller-provided array: it fills
// h with the deterministic swap targets for (seed, len(h), p).
func TargetsInto(seed uint64, p int, h []int32) {
	targets(seed, len(h), par.Workers(p), h)
}

// Targets returns the deterministic inside-out swap-target array for
// (seed, n, p). Applying the same targets to multiple parallel arrays
// (e.g. the swap engine's edges and their bookkeeping flags) permutes
// them consistently.
func Targets(seed uint64, n, p int) []int32 {
	h := make([]int32, n)
	TargetsInto(seed, p, h)
	return h
}

// applySerial executes the inside-out shuffle for the given target
// array: the tests' reference and the small-input / single-worker fast
// path. A tripped stop ends it at the next block boundary, leaving data
// partially permuted — the same multiset of elements in a different
// order — never corrupted.
//
//nullgraph:hotpath
func applySerial[T any](data []T, h []int32, stop *par.Stop) {
	//nullgraph:cancelable
	for b := 0; b < len(data); b += pollEvery {
		if stop.Stopped() {
			return
		}
		for i, e := b, min(b+pollEvery, len(data)); i < e; i++ {
			j := h[i]
			data[i], data[j] = data[j], data[i]
		}
	}
}

// serialCutoff is the size below which Apply falls back to the serial
// path; reservation rounds don't pay for themselves on small slices.
const serialCutoff = 1 << 12

const none = int32(math.MaxInt32)

// Scratch holds the reusable buffers of the reservation algorithm. One
// Scratch may back several Appliers (of different element types) as
// long as their Apply calls don't overlap in time.
//
// Buffer invariants that make dirty reuse safe:
//
//   - r (reservations) is all-`none` between Apply calls: round R's
//     reset phase clears exactly the cells round R's reserve phase
//     wrote, so the algorithm restores the array it found. Growth
//     re-initializes in full.
//   - the pending ping-pong buffers and loser lists are fully
//     (re)written before being read in every Apply call.
//
// A panic inside a caller-supplied context (not expected: bodies are
// internal) may violate the first invariant; discard the Scratch then.
type Scratch struct {
	r    []int32   // reservation priorities, all none when idle
	bufA []int32   // pending iterations (ping)
	bufB []int32   // pending iterations (pong)
	keep [][]int32 // per-chunk losers of the current round
	cur  []int32   // live pending view, read by prebound bodies
	fill func(w int, r par.Range)
}

// NewScratch returns an empty Scratch; buffers materialize on first use.
func NewScratch() *Scratch {
	sc := &Scratch{}
	sc.fill = func(_ int, r par.Range) {
		buf := sc.bufA
		for i := r.Begin; i < r.End; i++ {
			buf[i] = int32(i)
		}
	}
	return sc
}

// ensure grows the buffers for an n-element apply with p chunks. Buffers
// that already exist grow with slack, so batch runs whose input sizes
// jitter slightly don't reallocate on every small new maximum.
func (sc *Scratch) ensure(n, p int) {
	if cap(sc.r) < n {
		grown := n
		if sc.r != nil {
			grown += n / 8
		}
		sc.r = make([]int32, grown)
		for i := range sc.r {
			sc.r[i] = none
		}
	}
	if cap(sc.bufA) < n {
		sc.bufA = make([]int32, n, cap(sc.r))
	}
	if cap(sc.bufB) < n {
		sc.bufB = make([]int32, n, cap(sc.r))
	}
	sc.bufA = sc.bufA[:n]
	for len(sc.keep) < p {
		sc.keep = append(sc.keep, nil)
	}
	chunkMax := (n + p - 1) / p
	for w := 0; w < p; w++ {
		if cap(sc.keep[w]) < chunkMax {
			sc.keep[w] = make([]int32, 0, chunkMax)
		}
	}
}

//nullgraph:hotpath
func writeMin(r []int32, cell int, prio int32) {
	addr := &r[cell]
	for {
		cur := atomic.LoadInt32(addr)
		if cur <= prio {
			return
		}
		if atomic.CompareAndSwapInt32(addr, cur, prio) {
			return
		}
	}
}

// Applier executes reservation-parallel applies for one element type,
// reusing a Scratch and pre-bound phase bodies so steady-state calls do
// not allocate. Not safe for concurrent use; Appliers sharing a Scratch
// must not run concurrently with each other either.
type Applier[T any] struct {
	sc                    *Scratch
	data                  []T
	h                     []int32
	stop                  *par.Stop
	reserve, commit, rset func(w int, r par.Range)
}

// SetStop attaches (or, with nil, detaches) a cooperative stop flag.
// Apply polls it between reservation rounds — after the reset phase, so
// an abandoned apply still leaves the Scratch's reservation array
// all-none and the data partially permuted but element-complete.
func (a *Applier[T]) SetStop(stop *par.Stop) { a.stop = stop }

// NewApplier returns an applier over sc. The phase closures are
// allocated here, once, so Apply itself stays allocation-free.
func NewApplier[T any](sc *Scratch) *Applier[T] {
	a := &Applier[T]{sc: sc}
	a.reserve = func(_ int, rg par.Range) {
		cur, h, r := a.sc.cur, a.h, a.sc.r
		for k := rg.Begin; k < rg.End; k++ {
			i := cur[k]
			writeMin(r, int(i), i)
			writeMin(r, int(h[i]), i)
		}
	}
	a.commit = func(w int, rg par.Range) {
		sc := a.sc
		cur, h, r, data := sc.cur, a.h, sc.r, a.data
		keep := sc.keep[w][:0]
		for k := rg.Begin; k < rg.End; k++ {
			i := cur[k]
			j := h[i]
			if atomic.LoadInt32(&r[i]) == i && atomic.LoadInt32(&r[j]) == i {
				data[i], data[j] = data[j], data[i]
			} else {
				keep = append(keep, i)
			}
		}
		sc.keep[w] = keep
	}
	a.rset = func(_ int, rg par.Range) {
		sc := a.sc
		cur, h, r := sc.cur, a.h, sc.r
		for k := rg.Begin; k < rg.End; k++ {
			i := cur[k]
			atomic.StoreInt32(&r[i], none)
			atomic.StoreInt32(&r[h[i]], none)
		}
	}
	return a
}

// Apply permutes data according to a target array (from Targets /
// TargetsInto), choosing the serial or reservation-parallel execution by
// size. With a non-nil pool the parallel phases run on it (and p is
// ignored in favor of the pool's width); otherwise ForRange workers are
// spawned per phase. The result is bit-identical to applySerial(data, h)
// in all configurations.
func (a *Applier[T]) Apply(data []T, h []int32, p int, pool *par.Pool) {
	if len(data) != len(h) {
		panic("permute: Apply length mismatch")
	}
	n := len(data)
	if n <= 1 {
		return
	}
	if pool != nil {
		p = pool.Workers()
	} else {
		p = par.Workers(p)
	}
	if n < serialCutoff || p == 1 {
		applySerial(data, h, a.stop)
		return
	}
	a.run(data, h, p, pool)
}

// run executes the reservation algorithm: each round, every pending
// iteration i writeMin-reserves cells i and h[i]; iterations holding
// both reservations commit their swap. Priorities are iteration indices,
// so a committed iteration is one all of whose sequential predecessors
// on its cells have already committed — the final array is identical to
// applySerial(data, h).
func (a *Applier[T]) run(data []T, h []int32, p int, pool *par.Pool) {
	n := len(data)
	sc := a.sc
	sc.ensure(n, p)
	a.data, a.h = data, h

	par.Execute(pool, n, p, sc.fill)
	cur := sc.bufA[:n]
	spare := sc.bufB[:0]

	for len(cur) > 0 { //nullgraph:cancelable
		sc.cur = cur
		k := par.NumChunks(len(cur), p)
		// Phase 1: reserve. Phase 2: commit winners, collect losers
		// per chunk. Phase 3: reset reservations — only cells touched
		// this round need clearing, which restores r to all-none.
		par.Execute(pool, len(cur), p, a.reserve)
		par.Execute(pool, len(cur), p, a.commit)
		par.Execute(pool, len(cur), p, a.rset)
		spare = spare[:0]
		for w := 0; w < k; w++ {
			spare = append(spare, sc.keep[w]...)
		}
		cur, spare = spare, cur
		// Round boundary: the reset phase just restored r to all-none,
		// so abandoning here leaves the Scratch reusable.
		if a.stop.Stopped() {
			break
		}
	}
	sc.cur = nil
	a.data, a.h = nil, nil
}
