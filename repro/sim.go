package repro

import (
	"fmt"

	"listrank"
	"listrank/internal/alpha"
	"listrank/internal/vecalg"
	"listrank/internal/vm"
)

// This file exposes the evaluation substrates: the simulated Cray C90
// vector multiprocessor and the simulated DEC 3000/600 Alpha
// workstation the paper compares against (Table I). The simulators
// compute real results while charging machine cycles; see DESIGN.md
// for the machine models and their calibration.

// SimResult reports a simulated run.
type SimResult struct {
	// Cycles is the parallel completion time in machine clock cycles.
	Cycles float64
	// CyclesPerVertex is Cycles divided by the list length.
	CyclesPerVertex float64
	// Nanoseconds is Cycles at the machine's clock (4.2 ns on the C90).
	Nanoseconds float64
	// NSPerVertex is the paper's headline metric.
	NSPerVertex float64
}

func resultFor(mach *vm.Machine, n int) SimResult {
	cy := mach.Makespan()
	return SimResult{
		Cycles:          cy,
		CyclesPerVertex: cy / float64(n),
		Nanoseconds:     cy * mach.Cfg.ClockNS,
		NSPerVertex:     cy * mach.Cfg.ClockNS / float64(n),
	}
}

// SimulateC90 runs the selected algorithm on a simulated Cray C90 with
// the given number of processors (1–16) and returns the computed
// output alongside the cycle accounting. Rank selects list ranking
// (unit values); otherwise the list's values are scanned. The sublist
// algorithm uses the paper's §4.4 cost-model-tuned parameters for the
// given processor count.
func SimulateC90(l *listrank.List, alg Algorithm, procs int, rank bool, seed uint64) ([]int64, SimResult, error) {
	n := l.Len()
	if procs < 1 || procs > 16 {
		return nil, SimResult{}, fmt.Errorf("repro: C90 processor count %d out of range [1,16]", procs)
	}
	cfg := vm.CrayC90()
	cfg.Procs = procs
	mach := vm.New(cfg, 16*n+4096)
	in := vecalg.Load(mach, view(l))
	switch alg {
	case Serial:
		if procs != 1 {
			return nil, SimResult{}, fmt.Errorf("repro: serial algorithm runs on 1 processor, got %d", procs)
		}
		if rank {
			vecalg.SerialRank(in)
		} else {
			vecalg.SerialScan(in)
		}
	case Wyllie:
		if rank {
			vecalg.WyllieRank(in)
		} else {
			vecalg.WyllieScan(in)
		}
	case MillerReif:
		if procs != 1 {
			return nil, SimResult{}, fmt.Errorf("repro: the Miller-Reif implementation is single-processor, got %d", procs)
		}
		vecalg.MillerReifScan(in, seed)
	case AndersonMiller:
		if procs != 1 {
			return nil, SimResult{}, fmt.Errorf("repro: the Anderson-Miller implementation is single-processor, got %d", procs)
		}
		vecalg.AndersonMillerScan(in, seed, 128)
	case RulingSet:
		return nil, SimResult{}, fmt.Errorf("repro: the ruling-set algorithm has no vector-track implementation (the paper's §6 case against it needs no machine model help)")
	default:
		pr := vecalg.FromTunedP(n, procs, cfg.ContentionFor(procs), seed)
		if rank {
			vecalg.SublistRank(in, pr)
		} else {
			vecalg.SublistScan(in, pr)
		}
	}
	return in.OutSlice(), resultFor(mach, n), nil
}

// SimulateAlpha runs the serial algorithm on the simulated DEC
// 3000/600 Alpha workstation and returns the output and modeled
// nanoseconds. warm selects Table I's "Cache" column (data already
// resident); cold runs start with an empty cache ("Memory" column for
// lists larger than the 2 MB board cache).
func SimulateAlpha(l *listrank.List, rank, warm bool) ([]int64, float64) {
	w := alpha.DEC3000600()
	il := view(l)
	switch {
	case rank && warm:
		return w.RankWarm(il)
	case rank:
		return w.Rank(il)
	case warm:
		return w.ScanWarm(il)
	default:
		return w.Scan(il)
	}
}
