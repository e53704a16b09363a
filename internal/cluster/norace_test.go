//go:build !race

package cluster

// zeroAllocWindow is how many slots one TestClusterSlotZeroAlloc window
// counts allocations over.
const zeroAllocWindow = 20000
