// Package hashtable implements the concurrent open-addressing edge set
// from the paper (adapted from Slota et al. [33]): packed 64-bit edge
// keys, one atomic compare-and-swap per insertion in the common case,
// and linear or quadratic probing on collision.
//
// The table supports only TestAndSet (insert-if-absent), Contains, and
// clearing — exactly the operations double-edge swapping needs. There is
// no deletion: the swap loop rebuilds/clears the table every iteration.
//
// # Insert accounting
//
// The table itself has no size counter: a shared atomic incremented by
// every insert is the one point of cross-worker contention the slot
// array's per-key CAS design otherwise avoids, so it was removed. Hot
// loops insert through per-worker Writer handles instead, which count
// (and optionally journal) their own inserts with no shared state;
// CheckLoad sums the p counters at a quiescent point and enforces the
// load contract deterministically.
//
// # Clearing strategies
//
// Two clears are offered, selected empirically (ClearWriters picks per
// call):
//
//   - Full sweep (Clear/ClearRange): a parallel memset of the slot
//     array — O(slots), but the stores stream sequentially at memory
//     bandwidth (~0.5 ns/slot measured).
//   - Journaled clear via journaling Writers: each successful insert
//     records its claimed slot (exactly one journal entry per occupied
//     slot, because each slot is claimed by exactly one winning CAS);
//     ClearTouched zeros only those — O(inserted keys), but every store
//     is a scattered cache miss (~18 ns/slot measured).
//
// The crossover sits near 1.5-3% occupancy (sweepCrossover). The swap
// engines run at 12-25% occupancy (m-2m inserts into a >= 4m-slot
// table), firmly in full-sweep territory, so they use counting-only
// Writers; the journaled clear wins for sparse workloads — many small
// generations against one large table.
//
// A third design — stamping every slot with an epoch so Clear is a
// single epoch bump — was rejected: with full-width 64-bit keys the slot
// value and its epoch cannot be updated by one CAS, and every published
// two-word protocol admits a race in which a leftover value from an
// earlier epoch equals the key being inserted, letting two concurrent
// TestAndSet calls both report "inserted" (or a reader observe a
// half-initialized slot). Packing an epoch into the key word would
// require narrowing the key (fingerprinting), which trades exactness for
// speed — unacceptable for an MCMC filter whose false positives bias the
// stationary distribution. See DESIGN.md §"Versioned edge table" for
// the full analysis and the clear-strategy benchmark.
package hashtable

import (
	"fmt"
	"math"
	"sync/atomic"

	"nullgraph/internal/par"
	"nullgraph/internal/rng"
)

// Probing selects the collision-resolution sequence.
type Probing int

const (
	// Linear probing: slot, slot+1, slot+2, ...
	Linear Probing = iota
	// Quadratic probing: slot, slot+1, slot+3, slot+6, ... (triangular
	// increments, which visit every slot of a power-of-two table).
	Quadratic
)

// sweepCrossover is the occupancy denominator below which the journaled
// clear beats the full sweep: scattered journal stores cost ~32x a
// streamed sweep store (measured: ~18 ns vs ~0.55 ns on commodity
// hardware; see BenchmarkClearFullSweep / BenchmarkClearJournaled), so
// clearing by journal pays off only when fewer than slots/32 slots are
// occupied.
const sweepCrossover = 32

// EdgeSet is a fixed-capacity concurrent set of uint64 keys. Safe for
// concurrent TestAndSet/Contains; the clear methods must not race with
// writers.
//
// Slot encoding: 0 = empty, otherwise key+1 (vertex IDs are int32, so
// key+1 never wraps).
//
// # Load contract
//
// New(capacity) sizes the table so that holding `capacity` keys keeps
// the load factor at or below 50% (slot count = next power of two
// >= 2*capacity). Inserting more than Capacity() distinct keys is a
// contract violation. Enforcement is two-tier:
//
//   - The plain TestAndSet path has no counter, so overload is detected
//     only when a probe sequence visits every slot without finding a
//     home, which may be long after the 50% line is crossed. This path
//     panics at that point rather than looping forever.
//   - The Writer path counts inserts per worker (uncontended), and
//     CheckLoad — called at the iteration's quiescent point — panics
//     deterministically as soon as the generation's total exceeds
//     Capacity().
type EdgeSet struct {
	slots   []uint64
	mask    uint64
	probing Probing
}

// New creates a set able to hold capacity keys at <= 50% load.
// The slot count is the next power of two >= 2*capacity.
func New(capacity int, probing Probing) *EdgeSet {
	if capacity < 1 {
		capacity = 1
	}
	n := uint64(1)
	for n < 2*uint64(capacity) {
		n <<= 1
	}
	return &EdgeSet{slots: make([]uint64, n), mask: n - 1, probing: probing}
}

// Capacity returns the maximum number of keys the set accepts under the
// load contract (half the slot count).
func (s *EdgeSet) Capacity() int { return len(s.slots) / 2 }

// NumSlots returns the slot-array length; ClearRange callers partition
// [0, NumSlots()).
func (s *EdgeSet) NumSlots() int { return len(s.slots) }

// Len returns the current number of stored keys by scanning the slot
// array — O(slots), intended for tests and diagnostics, not hot paths.
// (The shared size counter it once read was every worker's single point
// of contention and is gone.) Not safe to call concurrently with
// writers.
func (s *EdgeSet) Len() int {
	n := 0
	for _, v := range s.slots {
		if v != 0 {
			n++
		}
	}
	return n
}

// TestAndSet inserts key if absent. It returns true if the key was
// already present ("test" hit) and false if this call inserted it —
// matching the paper's TestAndSet return convention in Algorithm III.1.
//
// It panics if the probe sequence exhausts the table (see the load
// contract on EdgeSet). Hot loops that insert through a Writer get
// deterministic load checking as well.
//
//nullgraph:hotpath
func (s *EdgeSet) TestAndSet(key uint64) bool {
	present, _, _ := s.testAndSet(key)
	return present
}

// testAndSet returns (present, slot, probes): slot is meaningful only
// when the call inserted (present == false); probes is the number of
// slots the probe sequence visited (>= 1), the §VIII ablation's
// probing-cost signal.
//
//nullgraph:hotpath
func (s *EdgeSet) testAndSet(key uint64) (bool, uint64, int) {
	stored := key + 1
	slot := rng.Mix64(key) & s.mask
	for step := uint64(1); ; step++ {
		cur := atomic.LoadUint64(&s.slots[slot])
		if cur == stored {
			return true, 0, int(step)
		}
		if cur == 0 {
			if atomic.CompareAndSwapUint64(&s.slots[slot], 0, stored) {
				return false, slot, int(step)
			}
			// Collision: another thread claimed this slot between the
			// load and the CAS. Re-examine the same slot — it may now
			// hold our key.
			cur = atomic.LoadUint64(&s.slots[slot])
			if cur == stored {
				return true, 0, int(step)
			}
		}
		if step > uint64(len(s.slots)) {
			panic("hashtable: probe sequence exhausted (table over capacity)")
		}
		slot = s.next(slot, step)
	}
}

// Contains reports whether key is present, without inserting.
//
//nullgraph:hotpath
func (s *EdgeSet) Contains(key uint64) bool {
	stored := key + 1
	slot := rng.Mix64(key) & s.mask
	for step := uint64(1); ; step++ {
		cur := atomic.LoadUint64(&s.slots[slot])
		if cur == stored {
			return true
		}
		if cur == 0 {
			return false
		}
		if step > uint64(len(s.slots)) {
			return false
		}
		slot = s.next(slot, step)
	}
}

// next advances the probe sequence. step counts completed probes.
//
//nullgraph:hotpath
func (s *EdgeSet) next(slot, step uint64) uint64 {
	if s.probing == Quadratic {
		return (slot + step) & s.mask // triangular: cumulative +1,+2,+3...
	}
	return (slot + 1) & s.mask
}

// Clear empties the set with a full parallel sweep of the slot array.
// Not safe to run concurrently with TestAndSet/Contains.
func (s *EdgeSet) Clear(p int) {
	par.ForRange(len(s.slots), p, func(_ int, r par.Range) {
		clear(s.slots[r.Begin:r.End])
	})
}

// ClearRange zeros slots [begin, end) with plain stores. Callers with
// their own worker pools partition [0, NumSlots()) and sweep each chunk
// on its owner; like Clear, it must only run at quiescent points.
//
//nullgraph:hotpath
func (s *EdgeSet) ClearRange(begin, end int) {
	clear(s.slots[begin:end])
}

// String describes the table occupancy; used in debug logs. O(slots).
func (s *EdgeSet) String() string {
	return fmt.Sprintf("EdgeSet{slots=%d, size=%d}", len(s.slots), s.Len())
}

// Writer is a single-worker insertion handle providing per-worker
// (contention-free) insert accounting and, in journaling mode, the slot
// journal that enables O(inserted) clearing. A Writer must be used by
// one goroutine at a time; distinct Writers on the same EdgeSet may
// insert concurrently. The struct is padded so adjacent Writers in a
// slice don't share cache lines.
//
//nullgraph:padded
type Writer struct {
	set     *EdgeSet
	inserts int
	journal []uint32 // slot of every insert since the last reset; nil in counting mode
	_       [88]byte // pad the 40 data bytes to 128 so neighbouring Writers never share a cache line
}

// NewWriters returns p independent journaling handles for s, each with
// journal capacity perWriterCap (journals grow beyond it if needed, at
// the cost of an allocation). It panics if the slot count exceeds
// uint32 range — at 4 billion slots (32 GiB) the journal encoding would
// need widening.
func (s *EdgeSet) NewWriters(p, perWriterCap int) []*Writer {
	if uint64(len(s.slots)) > math.MaxUint32 {
		panic("hashtable: table too large for uint32 slot journals")
	}
	if p < 1 {
		p = 1
	}
	if perWriterCap < 1 {
		perWriterCap = 1
	}
	ws := make([]*Writer, p)
	for i := range ws {
		ws[i] = &Writer{set: s, journal: make([]uint32, 0, perWriterCap)}
	}
	return ws
}

// NewCountingWriters returns p insertion handles that count but do not
// journal — the right mode when the caller will clear with a full sweep
// anyway (occupancy above ~1/32; see the package doc), keeping the
// per-insert cost to one local counter increment.
func (s *EdgeSet) NewCountingWriters(p int) []*Writer {
	if p < 1 {
		p = 1
	}
	ws := make([]*Writer, p)
	for i := range ws {
		ws[i] = &Writer{set: s}
	}
	return ws
}

// TestAndSet is EdgeSet.TestAndSet through this writer's accounting: a
// successful insert bumps the per-writer count and, in journaling mode,
// records the claimed slot. No shared state is touched beyond the slot
// CAS itself.
//
//nullgraph:hotpath
func (w *Writer) TestAndSet(key uint64) bool {
	present, slot, _ := w.set.testAndSet(key)
	if !present {
		w.inserts++
		if w.journal != nil {
			w.journal = append(w.journal, uint32(slot))
		}
	}
	return present
}

// TestAndSetProbed is TestAndSet additionally reporting how many slots
// the probe sequence visited (>= 1). The swap engine's loop bodies use
// it and file the length in a probe-length histogram when a recorder is
// attached.
//
//nullgraph:hotpath
func (w *Writer) TestAndSetProbed(key uint64) (present bool, probes int) {
	present, slot, probes := w.set.testAndSet(key)
	if !present {
		w.inserts++
		if w.journal != nil {
			w.journal = append(w.journal, uint32(slot))
		}
	}
	return present, probes
}

// Inserts returns the number of keys this writer inserted since its
// last reset.
func (w *Writer) Inserts() int { return w.inserts }

// Journaling reports whether this writer records slot journals.
func (w *Writer) Journaling() bool { return w.journal != nil }

// ClearTouched zeros every slot this writer inserted and resets the
// writer; it panics on counting-only writers (they cannot know their
// slots — sweep the table instead). Each occupied slot appears in
// exactly one journal (the one whose CAS claimed it), so concurrent
// ClearTouched calls on distinct writers touch disjoint slots; plain
// stores suffice because clears run at quiescent points (no concurrent
// readers/writers, ordered by the caller's join).
func (w *Writer) ClearTouched() {
	if w.journal == nil && w.inserts > 0 {
		panic("hashtable: ClearTouched on counting-only Writer")
	}
	slots := w.set.slots
	for _, idx := range w.journal {
		slots[idx] = 0
	}
	w.Reset()
}

// Reset zeroes the writer's insert count and journal without touching
// the table — for use after an external sweep (Clear/ClearRange).
func (w *Writer) Reset() {
	w.inserts = 0
	if w.journal != nil {
		w.journal = w.journal[:0]
	}
}

// CheckLoad panics if the writers' counters record more inserts than
// the table's load contract allows. Called at a quiescent point (e.g.
// end of a swap iteration) it turns silent overload into a
// deterministic failure. The scan is O(p).
func (s *EdgeSet) CheckLoad(ws []*Writer) {
	total := 0
	for _, w := range ws {
		total += w.Inserts()
	}
	if total > s.Capacity() {
		panic(fmt.Sprintf("hashtable: %d inserts exceed capacity %d (load contract: <= 50%%)", total, s.Capacity()))
	}
}

// ClearWriters checks the load contract, then empties the table with
// whichever strategy is cheaper for this generation's occupancy: the
// journaled per-writer clear when every writer journals and fewer than
// NumSlots()/sweepCrossover slots are occupied, otherwise a full
// parallel sweep. All writers are reset either way.
func (s *EdgeSet) ClearWriters(ws []*Writer, p int) {
	s.CheckLoad(ws)
	total := 0
	journaling := true
	for _, w := range ws {
		total += w.Inserts()
		journaling = journaling && w.Journaling()
	}
	if journaling && total*sweepCrossover < len(s.slots) {
		par.ForRange(len(ws), p, func(_ int, r par.Range) {
			for i := r.Begin; i < r.End; i++ {
				ws[i].ClearTouched()
			}
		})
		return
	}
	s.Clear(p)
	for _, w := range ws {
		w.Reset()
	}
}
