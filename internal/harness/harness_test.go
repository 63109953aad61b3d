package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestRenderFormats(t *testing.T) {
	tb := &Table{
		Title:   "T",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n1"},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	text := buf.String()
	for _, want := range []string{"T\n=", "a", "333", "note: n1"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render output missing %q:\n%s", want, text)
		}
	}
	buf.Reset()
	tb.RenderCSV(&buf)
	if got := buf.String(); got != "a,b\n1,2\n333,4\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestTableIShape(t *testing.T) {
	tb := TableI(1<<16, 1)
	if len(tb.Rows) != 2 || len(tb.Rows[0]) != 8 {
		t.Fatalf("Table I shape wrong: %+v", tb.Rows)
	}
	// Alpha memory slower than Alpha cache.
	if !(cell(t, tb, 0, 2) > cell(t, tb, 0, 1)) {
		t.Error("alpha memory not slower than cache")
	}
	// Vectorized beats serial on the C90; more processors beat fewer.
	if !(cell(t, tb, 0, 4) < cell(t, tb, 0, 3)) {
		t.Error("vectorized rank not faster than serial")
	}
	if !(cell(t, tb, 0, 7) < cell(t, tb, 0, 5)) {
		t.Error("8-processor rank not faster than 2")
	}
	// Rank faster than scan on every C90 column.
	for col := 3; col <= 7; col++ {
		if !(cell(t, tb, 0, col) < cell(t, tb, 1, col)) {
			t.Errorf("rank not faster than scan in column %d", col)
		}
	}
}

func TestTableIIShape(t *testing.T) {
	tb := TableII(1<<15, 2)
	if len(tb.Rows) != 5 {
		t.Fatalf("Table II rows = %d", len(tb.Rows))
	}
	ours := cell(t, tb, 4, 3)
	for r := 0; r < 4; r++ {
		if !(ours < cell(t, tb, r, 3)) {
			t.Errorf("ours (%.1f) not fastest vs row %d (%.1f)", ours, r, cell(t, tb, r, 3))
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tb := Fig1([]int{256, 1 << 13, 1 << 16}, 3)
	// Wyllie wins at 256, ours wins at 2^16.
	if !(cell(t, tb, 0, 2) < cell(t, tb, 0, 5)) {
		t.Error("Wyllie should win at n=256")
	}
	if !(cell(t, tb, 2, 5) < cell(t, tb, 2, 2)) {
		t.Error("ours should win at n=2^16")
	}
	// Serial roughly flat.
	if s0, s2 := cell(t, tb, 0, 1), cell(t, tb, 2, 1); s2 > 1.2*s0 || s2 < 0.8*s0 {
		t.Errorf("serial not flat: %v vs %v", s0, s2)
	}
}

func TestFig3Shape(t *testing.T) {
	tb := Fig3([]int{1 << 12, 1 << 18}, []int{1, 2, 4, 8}, 4)
	// 1p speedup is exactly 1.
	if cell(t, tb, 0, 1) != 1 || cell(t, tb, 1, 1) != 1 {
		t.Error("1p speedup not 1")
	}
	// Long lists scale better than short ones at 8p.
	if !(cell(t, tb, 1, 4) > cell(t, tb, 0, 4)) {
		t.Error("long list does not scale better than short")
	}
	// Monotone in p for the long list.
	if !(cell(t, tb, 1, 2) < cell(t, tb, 1, 3) && cell(t, tb, 1, 3) < cell(t, tb, 1, 4)) {
		t.Error("speedup not monotone in p for long list")
	}
}

func TestFig9Shape(t *testing.T) {
	tb := Fig9(10000, []int{100, 200}, 20, 5)
	for i := range tb.Rows {
		exp := cell(t, tb, i, 2)
		min, avg, max := cell(t, tb, i, 3), cell(t, tb, i, 4), cell(t, tb, i, 5)
		if !(min <= avg && avg <= max) {
			t.Errorf("row %d: min/avg/max disordered", i)
		}
		// Average within a loose band of the exponential prediction
		// except at the extremes (j=0 rows can be tiny).
		if exp > 5 && (avg < 0.5*exp || avg > 2*exp) {
			t.Errorf("row %d: avg %.1f far from expected %.1f", i, avg, exp)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tb := Fig10(10000, 199)
	if len(tb.Rows) < 5 || len(tb.Rows) > 25 {
		t.Fatalf("unexpected schedule length %d (paper: 11)", len(tb.Rows))
	}
	// S_i increasing, g decreasing, widths non-decreasing at the ends.
	prevS, prevG := 0.0, 1e18
	for i := range tb.Rows {
		s, g := cell(t, tb, i, 1), cell(t, tb, i, 2)
		if s <= prevS {
			t.Error("S_i not increasing")
		}
		if g > prevG {
			t.Error("g(S_i) not decreasing")
		}
		prevS, prevG = s, g
	}
	first := cell(t, tb, 0, 3)
	last := cell(t, tb, len(tb.Rows)-1, 3)
	if last <= first {
		t.Errorf("pack spacing did not widen: %v vs %v", first, last)
	}
}

func TestFig11Shape(t *testing.T) {
	tb := Fig11([]int{1 << 12, 1 << 16, 1 << 19}, 6)
	// Per-vertex time decreases with n on every processor count.
	for col := 1; col <= 4; col++ {
		if !(cell(t, tb, 2, col) < cell(t, tb, 0, col)) {
			t.Errorf("column %d not decreasing with n", col)
		}
	}
	// At the largest n, more processors are faster.
	last := len(tb.Rows) - 1
	if !(cell(t, tb, last, 4) < cell(t, tb, last, 2) && cell(t, tb, last, 2) < cell(t, tb, last, 1)) {
		t.Error("processor columns disordered at large n")
	}
	// 1p large-n value near the paper's 31 ns/vertex asymptote
	// (tolerance: our machine model composes to ≈ 9.1 cycles = 38 ns).
	v := cell(t, tb, last, 1)
	if v < 28 || v > 48 {
		t.Errorf("1p asymptote %v ns/vertex, paper 31.1", v)
	}
}

func TestModelValidationShape(t *testing.T) {
	tb := ModelValidation([]int{1 << 14, 1 << 17}, 7)
	for i := range tb.Rows {
		pred, sim, eq5 := cell(t, tb, i, 3), cell(t, tb, i, 4), cell(t, tb, i, 5)
		// Eq. 3 within 20% of simulation.
		if sim < 0.8*pred || sim > 1.25*pred {
			t.Errorf("row %d: Eq.3 %.2f vs simulated %.2f", i, pred, sim)
		}
		// Eq. 5 overestimates the simulation (asymptotically; allow a
		// few percent at small n where its dropped lower-order terms
		// cut both ways).
		if eq5 < 0.95*sim {
			t.Errorf("row %d: Eq.5 %.2f well below simulated %.2f", i, eq5, sim)
		}
		if i == len(tb.Rows)-1 && eq5 < sim {
			t.Errorf("Eq.5 %.2f below simulated %.2f at the largest n", eq5, sim)
		}
	}
}

func TestGoroutineTrackRuns(t *testing.T) {
	tb := GoroutineTrack([]int{1 << 14}, []int{1, 2}, 8)
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != 7 {
		t.Fatalf("goroutine track shape: %+v", tb.Rows)
	}
	for col := 1; col < 7; col++ {
		if v := cell(t, tb, 0, col); v <= 0 {
			t.Errorf("column %d nonpositive time %v", col, v)
		}
	}
}

func TestMachineComparison(t *testing.T) {
	tb := MachineComparison(1<<15, 9)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if !(cell(t, tb, 1, 2) > cell(t, tb, 0, 2)) {
		t.Error("Y-MP ns/vertex not above C90's")
	}
}

func TestDeterministicTable(t *testing.T) {
	tb := Deterministic([]int{1 << 12}, 2, 1)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tb.Rows))
	}
	row := tb.Rows[0]
	if len(row) != len(tb.Columns) {
		t.Fatalf("row width %d != %d columns", len(row), len(tb.Columns))
	}
	if row[0] != "4096" {
		t.Errorf("n column = %q", row[0])
	}
}

func TestOversampleTable(t *testing.T) {
	tb := Oversample([]int{1 << 14}, 1.0, 0.25, 1)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tb.Rows))
	}
	row := tb.Rows[0]
	if len(row) != len(tb.Columns) {
		t.Fatalf("row width %d != %d columns", len(row), len(tb.Columns))
	}
	// Validation inside the runner already guarantees correct output;
	// spot-check the ratio parses as a positive number.
	if ratio := cell(t, tb, 0, 3); ratio <= 0 {
		t.Errorf("ratio column = %v", ratio)
	}
}

func TestOpBreakdownTable(t *testing.T) {
	tb := OpBreakdown(1<<14, 1)
	if len(tb.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tb.Rows))
	}
	// Gathers per vertex sit near 4 (two per link in each traversal
	// phase) plus bounded overshoot.
	var gathersPerVertex float64
	for _, row := range tb.Rows {
		if row[0] == "gather elements" {
			gathersPerVertex = cell(t, tb, rowIndex(tb, "gather elements"), 2)
		}
	}
	if gathersPerVertex < 3.8 || gathersPerVertex > 6 {
		t.Errorf("gathers/vertex = %.2f, want ≈ 4-6", gathersPerVertex)
	}
}

func rowIndex(tb *Table, name string) int {
	for i, row := range tb.Rows {
		if row[0] == name {
			return i
		}
	}
	return -1
}

func TestTreeDepthTable(t *testing.T) {
	tb := TreeDepth(1<<13, 3)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	// The C90 sublist rows must beat the Alpha (ratio > 1), and 8
	// processors must beat 1.
	one := cell(t, tb, 2, 1)
	eight := cell(t, tb, 3, 1)
	if eight >= one {
		t.Errorf("8-proc %.1f ns/vertex not faster than 1-proc %.1f", eight, one)
	}
	alphaNS := cell(t, tb, 0, 1)
	if one >= alphaNS {
		t.Errorf("C90 sublist (%.1f) not faster than Alpha (%.1f)", one, alphaNS)
	}
}

func TestContractionTable(t *testing.T) {
	tb := Contraction([]int{1 << 10}, 5)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tb.Rows))
	}
	if got, want := len(tb.Rows[0]), len(tb.Columns); got != want {
		t.Fatalf("row width %d != %d", got, want)
	}
	if sp := cell(t, tb, 0, 4); sp <= 0 {
		t.Errorf("speedup column = %v", sp)
	}
}

func TestConnectivityTable(t *testing.T) {
	tb := Connectivity(1024, []int{1, 2})
	// 4 families × (2 serial + hook-shortcut × 2 proc counts) rows.
	if want := 4 * 4; len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("row width %d != %d", len(row), len(tb.Columns))
		}
	}
}

func TestBiconnectivityTable(t *testing.T) {
	tb := Biconnectivity(512, []int{1})
	if want := 4 * 2; len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	// Path family: every edge a bridge; blocks == edges.
	for _, row := range tb.Rows {
		if row[0] == "path" {
			if row[6] != row[2] {
				t.Errorf("path: blocks %s != edges %s", row[6], row[2])
			}
		}
	}
}

func TestConnectivityC90Table(t *testing.T) {
	tb := ConnectivityC90(512, 3)
	// 4 families × (Alpha + C90 scalar + 4 vector proc counts).
	if want := 4 * 6; len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	// Vector rows must report a speedup over the scalar row, and the
	// 8p row must beat the 1p row.
	for f := 0; f < 4; f++ {
		one := cell(t, tb, f*6+2, 5)
		eight := cell(t, tb, f*6+5, 5)
		if eight >= one {
			t.Errorf("family %d: 8p cycles/edge %.1f not below 1p %.1f", f, eight, one)
		}
	}
}
