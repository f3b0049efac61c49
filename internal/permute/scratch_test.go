package permute

import (
	"testing"

	"nullgraph/internal/par"
)

// TestTargetsIntoMatchesTargets locks the buffer-reusing entry point to
// the allocating one, including when the buffer is dirty from a
// previous, larger fill.
func TestTargetsIntoMatchesTargets(t *testing.T) {
	buf := make([]int32, 20000)
	for i := range buf {
		buf[i] = -7 // poison
	}
	for _, n := range []int{20000, 5000, 1} { // shrink between calls
		for _, p := range []int{1, 4} {
			want := Targets(99, n, p)
			got := buf[:n]
			TargetsInto(99, p, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: TargetsInto[%d] = %d, Targets %d", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

// TestApplierDirtyReuseIsExact is satellite S3: an Applier whose
// Scratch is dirty from arbitrary earlier permutations must still
// reproduce the serial inside-out shuffle bit-for-bit, across growing
// and shrinking inputs and worker counts.
func TestApplierDirtyReuseIsExact(t *testing.T) {
	sc := NewScratch()
	ap := NewApplier[int](sc)
	// Deliberately varied sizes: grow, shrink far below the previous
	// fill (leaving stale bytes in every buffer), regrow.
	sizes := []int{serialCutoff * 4, serialCutoff, serialCutoff * 2, 2, serialCutoff * 3}
	for round, n := range sizes {
		for _, p := range []int{1, 2, 4} {
			seed := uint64(round*31 + p)
			h := Targets(seed, n, p)
			want := iota(n)
			applySerial(want, h, nil)
			got := iota(n)
			ap.Apply(got, h, p, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d n=%d p=%d: dirty-scratch apply diverges at %d",
						round, n, p, i)
				}
			}
		}
	}
}

// TestApplierPoolMatchesNoPool: dispatching the reservation phases on a
// persistent pool must not change the output relative to per-phase
// goroutines (chunking is identical by construction).
func TestApplierPoolMatchesNoPool(t *testing.T) {
	const n = serialCutoff * 2
	const p = 4
	pool := par.NewPool(p)
	defer pool.Close()
	scPool := NewScratch()
	apPool := NewApplier[int](scPool)
	scPlain := NewScratch()
	apPlain := NewApplier[int](scPlain)
	for round := 0; round < 3; round++ {
		h := Targets(uint64(round)+55, n, p)
		a := iota(n)
		apPool.Apply(a, h, 0, pool)
		b := iota(n)
		apPlain.Apply(b, h, p, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: pool apply diverges from pool-free apply at %d", round, i)
			}
		}
	}
}

// TestSharedScratchAcrossAppliers mirrors the swap engine's usage: two
// appliers of different element types alternate on one Scratch, each
// must stay exact.
func TestSharedScratchAcrossAppliers(t *testing.T) {
	sc := NewScratch()
	apInt := NewApplier[int](sc)
	apByte := NewApplier[uint8](sc)
	const n = serialCutoff * 2
	for round := 0; round < 3; round++ {
		h := Targets(uint64(round)+7, n, 2)
		wantInt := iota(n)
		applySerial(wantInt, h, nil)
		gotInt := iota(n)
		apInt.Apply(gotInt, h, 2, nil)
		wantByte := make([]uint8, n)
		gotByte := make([]uint8, n)
		for i := range wantByte {
			wantByte[i] = uint8(i)
			gotByte[i] = uint8(i)
		}
		applySerial(wantByte, h, nil)
		apByte.Apply(gotByte, h, 2, nil)
		for i := 0; i < n; i++ {
			if gotInt[i] != wantInt[i] || gotByte[i] != wantByte[i] {
				t.Fatalf("round %d: shared-scratch appliers diverged at %d", round, i)
			}
		}
	}
}

// TestScratchReservationInvariant checks the documented idle invariant
// that makes dirty reuse safe: every reservation cell is restored to
// `none` after an Apply.
func TestScratchReservationInvariant(t *testing.T) {
	sc := NewScratch()
	ap := NewApplier[int](sc)
	const n = serialCutoff * 2
	h := Targets(13, n, 4)
	data := iota(n)
	ap.Apply(data, h, 4, nil)
	for i, v := range sc.r[:n] {
		if v != none {
			t.Fatalf("r[%d] = %d after Apply, want none", i, v)
		}
	}
}

func TestApplierLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	NewApplier[int](NewScratch()).Apply(make([]int, 3), make([]int32, 2), 1, nil)
}
