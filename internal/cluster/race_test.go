//go:build race

package cluster

// zeroAllocWindow is how many slots one TestClusterSlotZeroAlloc window
// counts allocations over. The race detector slows a slot about tenfold,
// so its window is a tenth as long; the full window is pinned without it.
const zeroAllocWindow = 2000
