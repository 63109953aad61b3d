// Simulator: drive the simulated Cray C90 and DEC Alpha directly and
// reproduce the paper's headline comparison — the 1994 numbers, from
// your laptop. This prints a miniature Table I plus the speedup story
// the abstract leads with ("on 8 processors our list ranking is 200
// times faster than a DEC 3000/600 Alpha workstation").
package main

import (
	"fmt"

	"listrank"
	"listrank/repro"
)

func main() {
	const n = 1 << 20
	l := listrank.NewRandomList(n, 7)

	fmt.Printf("list ranking, n = %d random-order vertices\n\n", n)

	// The workstation: serial, cache-hostile.
	_, alphaNS := repro.SimulateAlpha(l, true, false)
	alphaPer := alphaNS / float64(n)
	fmt.Printf("%-34s %8.1f ns/vertex\n", "DEC 3000/600 Alpha (memory)", alphaPer)

	// The C90 serial baseline.
	_, res, err := repro.SimulateC90(l, repro.Serial, 1, true, 1)
	must(err)
	fmt.Printf("%-34s %8.1f ns/vertex\n", "CRAY C90 serial", res.NSPerVertex)
	serialPer := res.NSPerVertex

	// The paper's algorithm on 1..8 processors.
	var onePer, eightPer float64
	for _, p := range []int{1, 2, 4, 8} {
		_, res, err = repro.SimulateC90(l, repro.Sublist, p, true, 1)
		must(err)
		fmt.Printf("CRAY C90 sublist, %-2d processor(s)  %8.1f ns/vertex\n", p, res.NSPerVertex)
		if p == 1 {
			onePer = res.NSPerVertex
		}
		if p == 8 {
			eightPer = res.NSPerVertex
		}
	}

	fmt.Printf("\nspeedups: vectorized vs C90 serial %.1fx (paper ~8x);\n", serialPer/onePer)
	fmt.Printf("          8 processors vs serial   %.1fx (paper ~50x);\n", serialPer/eightPer)
	fmt.Printf("          8 processors vs Alpha    %.0fx (paper ~200x)\n", alphaPer/eightPer)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
