// Package kernel provides the lane-interleaved traversal kernels that
// every hot chase loop of the sublist engine runs on — the software
// analog of the paper's vector lanes (§1.1, §3).
//
// Reid-Miller's result is fundamentally about keeping the memory
// system saturated: on the Cray C-90 the sublist chase is expressed as
// a wide vector gather over many independent sublists, so the machine
// always has a full pipeline of element loads in flight instead of one
// dependent load per step. A modern out-of-order core offers the same
// resource under a different name — miss-level parallelism: it can
// keep on the order of ten cache misses outstanding, but a serial
// pointer chase (load → compare → load) exposes exactly one. The chase
// kernels in this package recover the lost parallelism by advancing K
// independent sublist cursors (K = 2..MaxLanes, see DefaultWidth) in a
// software-pipelined round-robin. Each lane owns one in-flight
// sublist; the lane state (cursor, accumulator, destination slot)
// lives in registers / the top of the stack, and a lane that retires
// — its cursor reaches the sublist's self-looped tail — is refilled
// immediately from the worker's chunk of sublist heads, so the number
// of independent loads in flight stays at K until the chunk drains.
// The serial single-cursor walk is the lanes == 1 case of every
// kernel: it remains both the small-chunk fast path and the
// correctness oracle the lane paths are tested against.
//
// The record and stream kernels (record.go) are the sublist engine's
// hot loops, its Phases 1 and 3, in two word layouts. RecordRank and
// RecordScan chase the narrow §3 encoded word, RecordOp the wide
// {link, value} pair under any associative operator; each overwrites
// every word it reads with a record of the vertex's sublist and its
// offset or local prefix, and StreamRank, StreamScan and StreamOp then
// finish every vertex in one sequential pass. A narrow scan's list has
// Σ|value| < 2^31, so its local prefix fits the word's 32-bit field as
// a rank's offset does, and the scan costs what a rank costs: one
// random gather per vertex and no random store. Phase 2 runs the same
// kernels one level down, on the reduced list.
//
// The chase-twice kernels (chase.go) — SumEnc/ExpandEnc over a
// zero-addend encoded word and SumAdd/ExpandAdd over separate Next and
// value arrays — are the vector-machine shape of Phases 1 and 3. The
// engine does not run them; they serve only the benchmark's kernel
// rung.
//
// The sequential kernels (seq.go) serve lists the reorder cache has
// laid out in list order, and the broadcast kernels (broadcast.go) run
// segmented ranking's Phase 3; neither follows a link.
//
// All kernels are branch-lean and free of compiler-inserted bounds
// checks, which CI enforces by building this package with
// -gcflags=-d=ssa/check_bce and failing on any finding (see
// scripts/check_bce.sh and DESIGN.md, "Vector lanes in software").
// Data-dependent gathers use unchecked loads guarded by one explicit,
// perfectly-predicted range test per followed link (chk), which both
// preserves memory safety for malformed inputs and replaces the two
// to three per-element checks the compiler would insert — the same
// accounting discipline the paper applies to its inner loops. Every
// kernel is allocation-free: lane state is a fixed-size stack array
// and all working storage belongs to the caller's arena.
package kernel

// MaxLanes is the largest supported lane width. Beyond the hardware's
// miss-level parallelism (roughly 10-16 outstanding misses per core,
// plus what the L2 prefetchers add) extra lanes stop helping and start
// costing lane-state shuffles, so widths are clamped here.
const MaxLanes = 32

// Regime boundaries for DefaultWidth, in list vertices. The working
// set of a chase is ~3 words per vertex, so below 1<<18 vertices it
// is (mostly) cache-resident and 1<<23 is past any last-level cache
// worth planning for. The widths per regime are the persisted result
// of the measured lane sweep in EXPERIMENTS.md (cmd/tune -lanes
// reproduces it on any host).
const (
	widthSmallN = 1 << 18
	widthLargeN = 1 << 23
)

// DefaultWidth returns the tuned lane width for a list of n vertices:
// narrower for cache-resident lists (latency is short, so a few lanes
// saturate it and extra lanes only cost refill bookkeeping), widest
// for DRAM-resident lists (each miss is hundreds of cycles, so the
// kernel wants every outstanding-miss slot the core has). The
// constants are the persisted result of the cmd/tune -lanes sweep;
// Options.LaneWidth overrides them per call.
func DefaultWidth(n int) int {
	switch {
	case n < widthSmallN:
		return 8
	case n < widthLargeN:
		return 16
	default:
		return MaxLanes
	}
}

// Width clamps a requested lane width to [1, MaxLanes], resolving 0
// (auto) through DefaultWidth for a list of n vertices.
func Width(lanes, n int) int {
	if lanes == 0 {
		lanes = DefaultWidth(n)
	}
	return clampLanes(lanes)
}

func clampLanes(lanes int) int {
	if lanes < 1 {
		return 1
	}
	if lanes > MaxLanes {
		return MaxLanes
	}
	return lanes
}

// The narrow encoded-word layout shared with the engine (§3):
// enc[v] = next(v)<<encShift | addend(v).
const (
	encShift   = 32
	addendMask = (uint64(1) << encShift) - 1
)

// lane is one in-flight sublist chase: the cursor, the running
// accumulator, and the virtual-processor slot results retire into
// (unused by the expand kernels, which retire nothing).
type lane struct {
	cur, acc, slot int64
}

// checkChunk validates a chunk [lo, hi) against the vp-column lengths
// the kernel will index with slot values (explicit checks; the hot
// loops carry none).
func checkChunk(lo, hi, l1, l2, l3 int) {
	if lo < 0 || hi < lo || hi > l1 || hi > l2 || hi > l3 {
		panic("kernel: chunk out of range of the virtual-processor table")
	}
}
