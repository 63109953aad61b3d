#!/bin/sh
# BCE/codegen gate for the traversal kernels — the lane-interleaved
# chase loops, the sequential reorder-cache kernels (SeqScanAdd,
# SeqScanOp, SeqRank in seq.go), which the Server's warm hit path
# runs per request, AND the segmented engine's Phase 3 broadcast
# kernels (broadcast.go), which sweep every vertex of an out-of-core
# or cross-shard list once per rank. All must stream at memcpy-class
# speed.
#
# internal/kernel promises that its hot loops carry no
# compiler-inserted bounds checks: data-dependent gathers and scatters
# go through unchecked loads/stores guarded by one explicit range test
# per followed link or permutation entry (see internal/kernel/ptr.go
# and DESIGN.md, "Vector lanes in software"). This script holds the package to that promise by
# compiling it with the SSA check_bce debug pass, which prints a
# "Found IsInBounds" / "Found IsSliceInBounds" line for every bounds
# check that survives optimization, and failing if any does. The Go
# build cache replays compiler diagnostics on cache hits, so the gate
# is reliable without forced rebuilds.
#
# Usage: scripts/check_bce.sh   (from the module root)
set -eu

PKG=listrank/internal/kernel

out="$(go build -gcflags="$PKG=-d=ssa/check_bce" "$PKG" 2>&1 | grep -v '^#' || true)"

if [ -n "$out" ]; then
	echo "check_bce: bounds checks survive in $PKG:" >&2
	echo "$out" >&2
	echo "check_bce: FAIL — the kernel hot loops must compile bounds-check-free" >&2
	exit 1
fi
echo "check_bce: OK — no compiler-inserted bounds checks in $PKG"
