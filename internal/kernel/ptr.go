package kernel

import (
	"unsafe"

	"listrank/internal/list"
)

// Unchecked indexed access for the hot loops. The compiler cannot
// eliminate bounds checks on data-dependent gather indices (the index
// arrives from memory, not from an induction variable), so the kernels
// index through raw data pointers and carry their own safety net: chk
// validates every index before its first unchecked use, one explicit
// compare per followed link instead of the two or three implicit
// checks per element the safe form would pay. A kernel therefore
// panics (badIndex) on a malformed list — exactly like the safe form —
// and never touches memory outside the caller's slices.

// ld returns base[i] without a bounds check. i must have passed chk
// against the backing slice's length.
func ld[T any](base *T, i int64) T {
	return *(*T)(unsafe.Add(unsafe.Pointer(base), uintptr(i)*unsafe.Sizeof(*base)))
}

// st stores base[i] = v without a bounds check. i must have passed
// chk against the backing slice's length.
func st[T any](base *T, i int64, v T) {
	*(*T)(unsafe.Add(unsafe.Pointer(base), uintptr(i)*unsafe.Sizeof(*base))) = v
}

// chk is the explicit range guard: one compare and a never-taken
// branch per followed link. The unsigned compare folds the i < 0 and
// i >= n tests into one.
func chk(i int64, n uint64) {
	if uint64(i) >= n {
		badIndex()
	}
}

// badIndex is the cold panic path, kept out of line (and free of
// indexing of its own) so the hot loops stay small and the BCE gate
// stays clean. Every index it guards comes from the list or from
// words derived from it — an out-of-range link, a revisited vertex or
// an unrecorded one — so it refuses the list with list.ErrNotList.
//
//go:noinline
func badIndex() {
	panic(list.ErrNotList)
}
