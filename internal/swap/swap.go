// Package swap implements the paper's parallel double-edge swap engine
// (Algorithm III.1): an MCMC process that uniformly mixes the simple
// graphs of a fixed degree sequence.
//
// Each iteration:
//  1. every current edge is inserted into a concurrent hash table,
//  2. the edge list is randomly permuted in parallel (Shun et al.),
//  3. adjacent disjoint pairs (E[2k], E[2k+1]) each propose one of the
//     two endpoint exchanges, chosen by a fair coin, and commit it iff
//     neither new edge is a self-loop and neither is already present in
//     the table (checked with thread-safe TestAndSet),
//  4. the table is cleared with a parallel streaming sweep and the
//     per-worker insert counters are checked against the load contract.
//
// Degree sequence, edge count and — once the input is simple —
// simplicity are invariants of every iteration. Non-simple inputs (the
// O(m) Chung-Lu model emits loops and multi-edges) are progressively
// "simplified": a duplicate edge can swap into two fresh edges, and the
// paper observes a few dozen iterations remove all multi-edges.
//
// Deviation from the paper's pseudocode, documented here once: the
// self-loop test runs *before* the TestAndSet calls rather than after.
// Algorithm III.1's short-circuit `TestAndSet(g) = false and
// TestAndSet(h) = false and not loops` inserts g (and possibly h) into
// the table even when the loop test then rejects the proposal, which
// spuriously blocks later proposals of g in the same iteration. Testing
// loops first only removes those spurious failures; every committed
// swap satisfies exactly the same conditions.
//
// # Hot-path memory discipline
//
// The Engine owns every buffer an iteration needs — hash-table writer
// journals, the permutation target array and reservation scratch,
// per-worker padded accumulators, a persistent worker pool — so after
// the first Step on a given size, Step performs no heap allocations and
// the only cross-worker atomics are the edge table's CAS slots and the
// permutation's reservation words. Step must not be called concurrently
// with itself or with any other method of the same Engine.
//
// # One body per phase
//
// Each phase of the parallel kernel has exactly one loop body, serving
// every stub cell with or without a recorder and a stop flag. What
// differs per cell is the acceptance policy alone (policy.go); a
// recorder is a per-worker counter cell the body and the policy feed
// behind a nil check; a stop flag is polled once per fixed-size block,
// outside the per-element loop. Drive is the one chain driver: the
// fixed budget, the until-mixed heuristic and the adaptive convergence
// monitor are Stoppers it consults after every iteration.
//
// NewDirectedEngine runs the directed chain (internal/directed) on the
// same kernel, over the digraph's out/in cover (see policy.go): its pair
// move is one more acceptance policy, and one extra phase reverses
// disjoint directed triangles.
package swap

import (
	"fmt"

	"nullgraph/internal/connected"
	"nullgraph/internal/graph"
	"nullgraph/internal/hashtable"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
	"nullgraph/internal/permute"
	"nullgraph/internal/rng"
)

// Options configures a swap run.
type Options struct {
	// Space selects the cell of the sampling-space matrix the chain
	// targets (see graph.Space and policy.go). The zero value is
	// graph.SimpleStub — the paper's regime — and leaves every code
	// path bit-identical to the pre-matrix engine. Stub-labeled cells
	// run the parallel kernel with a per-space acceptance rule; the
	// vertex-labeled loopy/multigraph cells run a serial exact
	// Metropolis–Hastings sweep (Workers is ignored there). The caller
	// is responsible for the input being a legal state of the space;
	// the simple cells additionally tolerate non-simple input, which
	// the chain progressively simplifies (the historical behavior —
	// internal/simplify does it deterministically instead).
	Space graph.Space
	// Connected restricts the simple cell to *connected* simple graphs
	// (Viger–Latapy, arXiv:cs/0502085): proposals that would disconnect
	// the graph are rejected by a connectivity checker with a cached
	// spanning-tree witness (internal/connected). The chain is serial —
	// parallel commits that are individually connectivity-safe can
	// jointly disconnect the graph, so Workers is ignored, like the
	// vertex-labeled MH cells — and requires a connected simple input
	// (see connected.Connect for the repair) and a simple-cell Space.
	Connected bool
	// Iterations is the number of full permute-and-sweep passes Run
	// makes; an Engine driven by Drive takes its budget from the
	// Stopper instead.
	Iterations int
	// Workers is the parallel width; <= 0 means GOMAXPROCS.
	Workers int
	// Seed drives the permutations and proposal coins. With Workers=1
	// the run is bit-reproducible. With Workers>1 all *randomness* is
	// still seed-determined, but when two workers concurrently propose
	// the same new edge, which proposal the hash table admits depends
	// on scheduling — the same benign race the paper's OpenMP
	// implementation has — so exact outputs can differ across runs
	// while every invariant (degrees, edge count, simplicity) and the
	// sampled distribution are unaffected.
	Seed uint64
	// Probing selects the hash-table collision strategy.
	Probing hashtable.Probing
	// TrackSwapped maintains a per-edge "ever successfully swapped" flag
	// so IterStats can report the mixing fraction the paper uses as its
	// empirical stopping signal. The fraction is accumulated
	// incrementally from newly-set flags, so tracking costs one extra
	// permutation per iteration (the flags ride the edge permutation)
	// but no re-scan; leave false in throughput benchmarks.
	TrackSwapped bool
	// OnIteration, when non-nil, receives each iteration's statistics as
	// soon as the sweep finishes; experiments use it to snapshot
	// convergence without re-running.
	OnIteration func(iteration int, stats IterStats)
	// Recorder, when non-nil (and the obs layer is compiled in),
	// collects chain-health observability: per-iteration rejection
	// splits, hash-table probe-length histograms, and the ever-swapped
	// trajectory, aggregated at each iteration's quiescent point into
	// an obs.RunReport. Every stub cell reports the full split. The
	// loop bodies are the plain ones: a nil Recorder costs one
	// predictable nil check per table probe and per rejection, and no
	// allocation (TestStepDoesNotAllocate, the hotpathalloc analyzer
	// and the Step bench gate hold that cost down).
	Recorder *obs.Recorder
	// Stop, when non-nil, is polled cooperatively once per block of
	// each phase's loops (every few thousand indices) and between
	// phases, with or without a Recorder; a tripped flag ends the run
	// early with Result.Stopped set, leaving the edge list valid
	// (degree sequence and edge count preserved) but not fully mixed.
	// Polling never consumes randomness, so untripped runs are
	// bit-identical with or without a Stop.
	Stop *par.Stop
	// Pool, when non-nil, is an externally owned worker pool the engine
	// dispatches on instead of creating its own; the pool's width
	// overrides Workers, and Close leaves it running. Sessions use this
	// to share one pool across all pipeline phases.
	Pool *par.Pool
}

// Validate reports option misuse.
func (o Options) Validate() error {
	if o.Iterations < 0 {
		return fmt.Errorf("swap: negative iteration count %d", o.Iterations)
	}
	if !o.Space.Valid() {
		return fmt.Errorf("swap: invalid sampling space %v", o.Space)
	}
	if o.Connected && (o.Space.AllowsLoops() || o.Space.AllowsMulti()) {
		return fmt.Errorf("swap: Connected sampling is defined for the simple cell only, not %v", o.Space)
	}
	return nil
}

// IterStats reports one iteration of swapping.
type IterStats struct {
	// Attempts is the number of proposed pair swaps (⌊m/2⌋).
	Attempts int64
	// Successes is the number of committed swaps.
	Successes int64
	// EverSwapped is the fraction of edges that have been part of at
	// least one successful swap in any iteration so far. Only populated
	// when Options.TrackSwapped is set.
	EverSwapped float64
}

// Result summarizes a run.
type Result struct {
	PerIteration []IterStats
	// TotalSuccesses across all iterations.
	TotalSuccesses int64
	// Stopped reports that a cooperative stop flag ended the run before
	// its iteration budget. The edge list is valid (degrees, edge count,
	// and — for simple inputs — simplicity all hold) but under-mixed:
	// the interrupted iteration's partial work is kept, its statistics
	// are not reported, and PerIteration covers only complete
	// iterations.
	Stopped bool
}

// permSeedFor and sweepSeedFor derive an iteration's permutation and
// proposal streams; factored out so the naive reference implementation
// in the tests replays the exact streams.
func permSeedFor(seed uint64, it int) uint64 {
	return rng.Mix64(seed) + 0x9e3779b97f4a7c15*uint64(it+1)
}

func sweepSeedFor(seed uint64, it int) uint64 {
	return rng.Mix64(seed) ^ rng.Mix64(uint64(it)+0xabcd0123)
}

// sweepWorkerSeed derives worker w's proposal stream for an iteration.
func sweepWorkerSeed(sweepSeed uint64, w int) uint64 {
	return rng.Mix64(sweepSeed) ^ rng.Mix64(uint64(w)+0x5134)
}

// Engine holds the reusable state of the swap process on one edge list:
// the concurrent edge table with its per-worker insertion counters, the
// ever-swapped flags, the permutation scratch, and the worker pool.
// Iterations can be run in any grouping without losing tracking state.
//
// Engines with more than one worker own parked goroutines; call Close
// when done with an engine (Run does it for the engine it creates). All methods must be called from one goroutine at a
// time.
type Engine struct {
	el  *graph.EdgeList
	opt Options
	p   int

	pool     *par.Pool
	ownsPool bool
	table    *hashtable.EdgeSet
	writers  []*hashtable.Writer

	// Space-derived configuration, fixed at construction. vertexMH
	// selects the serial Metropolis–Hastings step (policy.go); useTable
	// is false for cells whose acceptance rule never consults the edge
	// table (multigraph-stub accepts every proposal), which skips the
	// register and clear phases entirely. accept is the stub-cell
	// acceptance policy the sweep body dispatches through; ms is the
	// live multiplicity view the vertex-labeled step reads. directed
	// marks an engine over an out/in cover (NewDirectedEngine), which
	// adds the triangle-reversal phase.
	vertexMH bool
	useTable bool
	directed bool
	accept   policy
	ms       *graph.Multiset

	// connMode selects the serial connectivity-preserving step
	// (connected.go); conn is its swap-acceptance checker. Both are nil
	// state for unconstrained runs, whose code paths stay bit-identical.
	connMode bool
	conn     *connected.Checker

	// stop is the attached cooperative cancellation flag (nil when the
	// run is uncancelable, which keeps the hot path to nil checks).
	stop *par.Stop

	// swapped flags ever-swapped edges; swappedCount accumulates the
	// number of set flags so EverSwappedFraction is O(1) instead of an
	// O(m) rescan per iteration.
	swapped      []uint8
	swappedCount int64

	// h is the permutation target buffer; sc/apEdges/apFlags the
	// reusable reservation machinery (the appliers share one scratch —
	// they run sequentially).
	h       []int32
	sc      *permute.Scratch
	apEdges *permute.Applier[graph.Edge]
	apFlags *permute.Applier[uint8]

	// successes and newly are per-worker padded accumulators (cache-line
	// isolated so workers don't false-share).
	successes []par.Cell
	newly     []par.Cell

	// iteration counts all iterations run so far; it seeds each
	// iteration's permutation and proposal streams. permSeed/sweepSeed
	// are the current iteration's derived seeds, read by the prebound
	// bodies below.
	iteration int
	permSeed  uint64
	sweepSeed uint64

	// rec is the attached chain-health recorder (nil when observability
	// is off, which leaves the hot path untouched).
	rec *obs.Recorder

	// Prebound parallel-region bodies, one per phase: allocated once
	// here so Step dispatches them without creating closures.
	registerBody func(w int, r par.Range)
	targetsBody  func(w int, r par.Range)
	sweepBody    func(w int, r par.Range)
	triangleBody func(w int, r par.Range)
	clearBody    func(w int, r par.Range)
}

// Poll intervals of the cancelable phase bodies: a stop flag is read
// once per block of this many registrations or proposal pairs, so
// polling never enters the per-element loop.
const (
	registerBlock = 8192
	sweepBlock    = 2048
)

// NewEngine prepares a swap engine over el. The engine mutates el's
// edge slice in place; el must not be resized while the engine is live.
func NewEngine(el *graph.EdgeList, opt Options) *Engine {
	return newEngine(el, opt, false)
}

// NewDirectedEngine prepares a swap engine over the out/in cover of a
// digraph: el holds ArcEdge(u, v) for every arc u→v, and every
// iteration keeps each vertex's out- and in-degree. Each adjacent pair
// proposes its single legal exchange with probability 1/2 (the lazy
// coin, acceptDirected), and a second sweep reverses disjoint directed
// triangles. Space, Connected and Recorder must be zero: the chain
// samples simple digraphs and reports no RunReport.
func NewDirectedEngine(el *graph.EdgeList, opt Options) *Engine {
	if opt.Space != graph.SimpleStub || opt.Connected || opt.Recorder != nil {
		panic("swap: a directed engine samples simple digraphs and takes no recorder")
	}
	return newEngine(el, opt, true)
}

func newEngine(el *graph.EdgeList, opt Options, directed bool) *Engine {
	p := par.Workers(opt.Workers)
	if opt.Pool != nil {
		// Per-worker state (writers, cells) is indexed by the dispatching
		// pool's worker IDs, so an external pool dictates the width.
		p = opt.Pool.Workers()
	}
	eng := &Engine{el: el, opt: opt, p: p, directed: directed}
	switch {
	case directed:
		eng.useTable = true
		eng.accept = acceptDirected
	case opt.Space == graph.LoopyVertex || opt.Space == graph.MultigraphVertex:
		// Serial exact-MH cells: no table, no permutation.
		eng.vertexMH = true
	case opt.Space == graph.MultigraphStub:
		// Every proposal is accepted, so the register/clear phases and
		// the table itself are dead weight; only permute-and-commit runs.
		eng.accept = acceptAll
	case opt.Space == graph.LoopyStub:
		eng.useTable = true
		eng.accept = acceptLoopyStub
	default: // SimpleStub, SimpleVertex: one regime, see graph.Space.
		eng.useTable = true
		eng.accept = acceptSimple
	}
	if opt.Connected {
		if opt.Space.AllowsLoops() || opt.Space.AllowsMulti() {
			panic("swap: Connected sampling is defined for the simple cell only (Options.Validate catches this)")
		}
		// The connected chain is a serial sweep over live multiplicity
		// and adjacency state (like the vertex-MH cells), so the frozen
		// table and the permutation machinery are dead weight.
		eng.connMode = true
		eng.useTable = false
		eng.conn = connected.NewChecker()
	}
	if opt.Pool != nil {
		eng.pool = opt.Pool
	} else {
		eng.pool = par.NewPool(p)
		eng.ownsPool = true
	}
	eng.sc = permute.NewScratch()
	eng.apEdges = permute.NewApplier[graph.Edge](eng.sc)
	eng.apFlags = permute.NewApplier[uint8](eng.sc)
	eng.successes = make([]par.Cell, p)
	eng.newly = make([]par.Cell, p)

	// A worker that observes the tripped stop flag leaves its chunk at
	// the next block boundary; the join still happens, so the engine's
	// state stays consistent and step() decides what to do with the
	// partial phase. Polling reads nothing from the RNG streams.
	eng.registerBody = func(w int, r par.Range) {
		wtr := eng.writers[w]
		cell := eng.cell(w)
		edges := eng.el.Edges
		stop := eng.stop
		//nullgraph:cancelable
		for b := r.Begin; b < r.End; b += registerBlock {
			if stop.Stopped() {
				return
			}
			for i, e := b, min(b+registerBlock, r.End); i < e; i++ {
				_, probes := wtr.TestAndSetProbed(edges[i].Key())
				probed(cell, probes)
			}
		}
	}
	eng.targetsBody = func(w int, r par.Range) {
		permute.FillTargets(eng.h, eng.permSeed, w, r.Begin, r.End, eng.stop)
	}
	eng.sweepBody = func(w int, r par.Range) {
		var src rng.Block
		src.Reseed(sweepWorkerSeed(eng.sweepSeed, w))
		edges := eng.el.Edges
		var wtr *hashtable.Writer // table-less cells have no writers
		if eng.writers != nil {
			wtr = eng.writers[w]
		}
		cell := eng.cell(w)
		accept := eng.accept
		stop := eng.stop
		swapped := eng.swapped
		var local, newly int64
		//nullgraph:cancelable
		for b := r.Begin; b < r.End; b += sweepBlock {
			if stop.Stopped() {
				break
			}
			for k, e := b, min(b+sweepBlock, r.End); k < e; k++ {
				i, j := 2*k, 2*k+1
				g, hh := rewirePair(edges[i], edges[j], src.Bool())
				if v := accept(wtr, cell, g, hh); v != accepted {
					if obs.Enabled && cell != nil {
						v.record(cell)
					}
					continue
				}
				edges[i], edges[j] = g, hh
				if swapped != nil {
					newly += markSwapped(swapped, i) + markSwapped(swapped, j)
				}
				local++
			}
		}
		eng.successes[w].V = local
		eng.newly[w].V = newly
	}
	eng.triangleBody = func(w int, r par.Range) {
		edges := eng.el.Edges
		wtr := eng.writers[w]
		stop := eng.stop
		swapped := eng.swapped
		var local, newly int64
		//nullgraph:cancelable
		for b := r.Begin; b < r.End; b += sweepBlock {
			if stop.Stopped() {
				break
			}
			for k, e := b, min(b+sweepBlock, r.End); k < e; k++ {
				i := 3 * k
				if !reverseTriangle(wtr, edges[i:i+3:i+3]) {
					continue
				}
				if swapped != nil {
					newly += markSwapped(swapped, i) + markSwapped(swapped, i+1) + markSwapped(swapped, i+2)
				}
				local++
			}
		}
		eng.successes[w].V = local
		eng.newly[w].V = newly
	}
	eng.clearBody = func(_ int, r par.Range) {
		eng.table.ClearRange(r.Begin, r.End)
	}

	if obs.Enabled && opt.Recorder != nil {
		eng.rec = opt.Recorder
	}
	eng.SetStop(opt.Stop)

	eng.bind(el)
	return eng
}

// cell returns worker w's recorder cell, or nil when no recorder is
// attached: the loop bodies and policies record behind a nil check.
//
//nullgraph:hotpath
func (eng *Engine) cell(w int) *obs.Counters {
	if eng.rec == nil {
		return nil
	}
	return eng.rec.Cell(w)
}

// bind sizes the per-edge-list state (table, journals, target buffer,
// flags) for el, reusing existing buffers when they are large enough.
func (eng *Engine) bind(el *graph.EdgeList) {
	eng.el = el
	m := len(el.Edges)
	if eng.vertexMH || eng.connMode {
		// The serial steps read multiplicities instead of a frozen
		// table and propose positions directly, so the multiset is the
		// per-edge-list state they need.
		if eng.ms == nil {
			eng.ms = graph.MultisetOf(el)
		} else {
			eng.ms.Reset()
			for _, e := range el.Edges {
				eng.ms.AddEdge(e)
			}
		}
	}
	if eng.connMode {
		// The connected chain's hard precondition is a connected simple
		// input; callers repair with connected.Connect before binding.
		if err := eng.conn.Bind(el); err != nil {
			panic("swap: " + err.Error())
		}
	}
	if m >= 2 && eng.useTable {
		// Worst case insertions per iteration: m initial edges + 2 new
		// edges per proposing pair = 2m, the table's exact capacity; a
		// directed engine adds 3 per proposing triple, 3m in all.
		// Counting-only writers: at >= m inserts into <= 8m slots the
		// iteration always ends above the journal/sweep crossover, so
		// journaling the slots would be pure per-insert overhead (see the
		// hashtable package doc).
		need := 2 * m
		if eng.directed {
			need = 3 * m
		}
		if eng.table == nil || eng.table.Capacity() < need {
			capacity := need
			if eng.table != nil {
				// Rebind growth: batch samples over a same-shape input
				// jitter in edge count, so a little slack absorbs the
				// fluctuations instead of reallocating per sample. Slot
				// count affects only probe lengths, never membership
				// outcomes (exact key compare), so output is unchanged.
				capacity += m / 4
			}
			eng.table = hashtable.New(capacity, eng.opt.Probing)
			eng.writers = eng.table.NewCountingWriters(eng.p)
		}
		for _, w := range eng.writers {
			w.Reset()
		}
	}
	if m >= 2 && !eng.vertexMH && !eng.connMode {
		// Permutation target buffer — every parallel cell permutes, with
		// or without a table; the serial steps propose positions
		// directly and need none.
		if cap(eng.h) < m {
			grown := m
			if eng.h != nil {
				grown += m / 8
			}
			eng.h = make([]int32, grown)
		}
		eng.h = eng.h[:m]
	}
	if eng.opt.TrackSwapped {
		if cap(eng.swapped) < m {
			eng.swapped = make([]uint8, m)
		}
		eng.swapped = eng.swapped[:m]
		clear(eng.swapped)
	}
	eng.swappedCount = 0
	eng.iteration = 0
	if eng.rec != nil {
		// A (re)bound engine starts a fresh chain, so the recorder's
		// swap section restarts with it; generation-phase sections
		// recorded earlier in the pipeline are preserved.
		eng.rec.StartRun(eng.opt.Seed, eng.p, m)
	}
}

// Reset rebinds the engine to a new edge list, reusing the table,
// counters, scratch and pool when capacities allow. Tracking state and
// the iteration counter restart from zero, so a Reset engine behaves
// exactly like a freshly constructed one (bit-identically for
// Workers=1). The previous edge list is left as the last Step left it.
func (eng *Engine) Reset(el *graph.EdgeList) {
	eng.bind(el)
}

// SetSeed redirects the randomness of subsequent iterations to a new
// seed stream. Combined with Reset, it lets one engine's buffers serve
// a batch of independent samples.
func (eng *Engine) SetSeed(seed uint64) { eng.opt.Seed = seed }

// SetStop attaches (or, with nil, detaches) a cooperative stop flag for
// subsequent iterations, propagating it to the permutation appliers.
func (eng *Engine) SetStop(stop *par.Stop) {
	eng.stop = stop
	eng.apEdges.SetStop(stop)
	eng.apFlags.SetStop(stop)
}

// Close releases the engine's worker pool (unless it was supplied via
// Options.Pool, in which case its owner closes it). The engine must not
// be used afterwards. Idempotent.
func (eng *Engine) Close() {
	if eng.ownsPool {
		eng.pool.Close()
	}
}

// EverSwappedFraction returns the fraction of edges that have been in a
// successful swap so far (0 when tracking is disabled).
func (eng *Engine) EverSwappedFraction() float64 {
	if len(eng.swapped) == 0 {
		return 0
	}
	return float64(eng.swappedCount) / float64(len(eng.swapped))
}

// Step runs one full swap iteration and returns its statistics.
func (eng *Engine) Step() IterStats {
	stats, _ := eng.iterate()
	return stats
}

// iterate runs one iteration like Step, also reporting whether the stop
// flag interrupted it (an interrupted iteration reports no statistics
// and skips Options.OnIteration).
func (eng *Engine) iterate() (IterStats, bool) {
	stats, stopped := eng.step()
	if !stopped && eng.opt.OnIteration != nil {
		eng.opt.OnIteration(eng.iteration-1, stats)
	}
	return stats, stopped
}

// clearTable restores the edge table and writer counters after an
// abandoned iteration, so the next Step (or a Reset) finds the same
// clean state a completed iteration leaves.
func (eng *Engine) clearTable() {
	if eng.table == nil {
		// Table-less cells (multigraph-stub) have nothing to restore.
		return
	}
	eng.pool.Run(eng.table.NumSlots(), eng.clearBody)
	for _, w := range eng.writers {
		w.Reset()
	}
}

// step runs one swap iteration, reporting whether the stop flag
// interrupted it. An interrupted iteration keeps whatever partial work
// committed (every committed swap is individually valid, so the edge
// list stays degree- and simplicity-preserving), restores the hash
// table, and reports no statistics. The loop bodies poll once per
// block, recorder or not, so cancellation latency is bounded by a block
// of registrations or proposals per worker.
//
//nullgraph:hotpath
func (eng *Engine) step() (IterStats, bool) {
	if eng.vertexMH {
		return eng.stepVertex()
	}
	if eng.connMode {
		return eng.stepConnected()
	}
	m := len(eng.el.Edges)
	it := eng.iteration
	eng.iteration++
	if m < 2 {
		return IterStats{}, eng.stop.Stopped()
	}
	pool := eng.pool
	stop := eng.stop
	if stop.Stopped() {
		// Nothing touched yet: the table is still clean.
		return IterStats{}, true
	}

	// Phase 1: register the current edge set (skipped for cells whose
	// acceptance rule never consults the table).
	if eng.useTable {
		pool.Run(m, eng.registerBody)
		if stop.Stopped() {
			eng.clearTable()
			return IterStats{}, true
		}
	}

	// Phase 2: permute. The swapped flags ride along under the same
	// targets so flag k keeps following edge k.
	eng.permSeed = permSeedFor(eng.opt.Seed, it)
	pool.Run(m, eng.targetsBody)
	if stop.Stopped() {
		eng.clearTable()
		return IterStats{}, true
	}
	eng.apEdges.Apply(eng.el.Edges, eng.h, eng.p, pool)
	if eng.swapped != nil {
		// A stop between the two applies leaves the flags lagging the
		// edges; acceptable, because an interrupted sample's tracking
		// state is discarded (the run ends, and Reset clears it).
		eng.apFlags.Apply(eng.swapped, eng.h, eng.p, pool)
	}
	if stop.Stopped() {
		eng.clearTable()
		return IterStats{}, true
	}

	// Phase 3: propose swaps on adjacent disjoint pairs.
	pairs := m / 2
	stats := IterStats{Attempts: int64(pairs)}
	eng.sweepSeed = sweepSeedFor(eng.opt.Seed, it)
	stats.Successes = eng.runCommits(pairs, eng.sweepBody)
	if stop.Stopped() {
		eng.clearTable()
		return IterStats{}, true
	}

	// Phase 3b (directed engines only): reverse disjoint directed
	// triangles. The table still holds every arc present this iteration
	// plus the pair sweep's insertions — a conservative filter that can
	// only reject, never corrupt.
	if eng.directed {
		triples := m / 3
		stats.Attempts += int64(triples)
		stats.Successes += eng.runCommits(triples, eng.triangleBody)
		if stop.Stopped() {
			eng.clearTable()
			return IterStats{}, true
		}
	}
	if eng.swapped != nil {
		stats.EverSwapped = eng.EverSwappedFraction()
	}

	// Phase 4: reset the table for the next iteration — a streaming
	// parallel sweep (the measured winner at swap occupancy; see the
	// hashtable package doc), with the deterministic load check at this
	// quiescent point.
	if eng.useTable {
		eng.table.CheckLoad(eng.writers)
		eng.clearTable()
	}
	if eng.rec != nil {
		// Quiescent point: all workers joined, so aggregating and
		// resetting their cells races with nothing.
		eng.rec.FlushIteration(stats.Attempts, stats.Successes, stats.EverSwapped)
	}
	return stats, false
}

// runCommits dispatches a committing phase body over n items and folds
// its per-worker counters: it returns the phase's commits and adds its
// newly swapped edges to the ever-swapped count.
//
//nullgraph:hotpath
func (eng *Engine) runCommits(n int, body func(w int, r par.Range)) int64 {
	for w := range eng.successes {
		eng.successes[w].V = 0
		eng.newly[w].V = 0
	}
	eng.pool.Run(n, body)
	var commits int64
	for w := range eng.successes {
		commits += eng.successes[w].V
		eng.swappedCount += eng.newly[w].V
	}
	return commits
}

// markSwapped sets edge i's ever-swapped flag, returning 1 when it was
// newly set.
//
//nullgraph:hotpath
func markSwapped(swapped []uint8, i int) int64 {
	if swapped[i] != 0 {
		return 0
	}
	swapped[i] = 1
	return 1
}

// Stopper decides how long a chain runs: at most MaxIterations
// iterations, ending earlier when Observe — called with the 0-based
// iteration index and that iteration's statistics — returns true. The
// swap layer knows nothing about convergence policy; adaptive monitors
// (internal/converge) implement this interface, keeping this package
// free of any dependency on diagnostics.
type Stopper interface {
	MaxIterations() int
	Observe(it int, stats IterStats) bool
}

// Budget is the fixed-budget Stopper: exactly Budget iterations.
type Budget int

// MaxIterations returns the budget.
func (b Budget) MaxIterations() int { return int(b) }

// Observe never ends a fixed-budget run early.
func (Budget) Observe(int, IterStats) bool { return false }

// UntilMixed is the paper's empirical mixing Stopper: the run ends once
// every edge has been part of a successful swap, or after UntilMixed
// iterations. It reads IterStats.EverSwapped, so the engine must be
// built with Options.TrackSwapped; untracked runs never mix and use
// the whole budget.
type UntilMixed int

// MaxIterations returns the iteration cap.
func (u UntilMixed) MaxIterations() int { return int(u) }

// Observe reports whether every edge has swapped.
func (UntilMixed) Observe(_ int, stats IterStats) bool { return stats.EverSwapped >= 1 }

// MixCap is the until-mixed Stopper of both pipelines' MixUntilSwapped
// mode: run until every edge has swapped, for at most 128 iterations.
const MixCap UntilMixed = 128

// Drive is the chain driver: it advances eng until st ends the run or
// the stop flag interrupts it. The boolean reports whether st.Observe
// ended the run (false means the budget ran out or the stop flag
// canceled the run, which Result.Stopped records).
func Drive(eng *Engine, st Stopper) (Result, bool) {
	n := st.MaxIterations()
	result := Result{PerIteration: make([]IterStats, 0, n)}
	for it := 0; it < n; it++ {
		stats, stopped := eng.iterate()
		if stopped {
			result.Stopped = true
			return result, false
		}
		result.PerIteration = append(result.PerIteration, stats)
		result.TotalSuccesses += stats.Successes
		if st.Observe(it, stats) {
			return result, true
		}
	}
	return result, false
}

// Run performs opt.Iterations parallel double-edge swap iterations on el
// in place and returns per-iteration statistics.
func Run(el *graph.EdgeList, opt Options) Result {
	eng := NewEngine(el, opt)
	defer eng.Close()
	result, _ := Drive(eng, Budget(opt.Iterations))
	return result
}

// FixedStopReport is the RunReport stop section of a run under Budget
// (untilMixed false) or UntilMixed; an adaptive monitor reports its own
// outcome instead.
func FixedStopReport(untilMixed, mixed bool, res Result) *obs.StopReport {
	reason := "scans"
	if untilMixed {
		reason = "budget"
		if mixed {
			reason = "mixed"
		}
	}
	return &obs.StopReport{
		Policy:     "fixed",
		Reason:     reason,
		Iterations: len(res.PerIteration),
	}
}
