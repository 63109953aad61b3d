package listrank

// ScanValuesRanked runs ScanValues' ranked path, which ScanValues takes
// only from scanValuesRankedMin vertices up, for the external tests.
func ScanValuesRanked(l *List, vals []int64, opt Options) []int64 {
	out := make([]int64, l.Len())
	scanValuesRanked(l, vals, func(a, b int64) int64 { return a + b }, 0, opt, out)
	return out
}
