package repro_test

import (
	"fmt"

	"listrank"
	"listrank/repro"
)

func ExampleSimulateC90() {
	l := listrank.NewRandomList(1<<16, 1)
	_, res, err := repro.SimulateC90(l, repro.Serial, 1, true, 1)
	if err != nil {
		panic(err)
	}
	// The C90 serial pointer chase runs at 42.1 cycles/vertex
	// (Table I: 177 ns at 4.2 ns/cycle).
	fmt.Printf("%.1f cycles/vertex\n", res.CyclesPerVertex)
	// Output: 42.1 cycles/vertex
}

func ExampleRank() {
	l := listrank.NewRandomList(100000, 7)
	serialRanks := repro.Rank(l, repro.Options{Algorithm: repro.Serial})
	same := true
	for _, alg := range []repro.Algorithm{repro.Wyllie, repro.AndersonMiller} {
		ranks := repro.Rank(l, repro.Options{Algorithm: alg, Procs: 4})
		for i := range serialRanks {
			if serialRanks[i] != ranks[i] {
				same = false
			}
		}
	}
	fmt.Println("algorithms agree:", same)
	// Output: algorithms agree: true
}
