package telemetry

import "sync/atomic"

// ring is a bounded overwrite ring: it keeps the last len(buf) of the
// total values ever pushed, overwriting the oldest on wrap. It has one
// writer. total is atomic so live telemetry can read counts (dropped,
// occupancy) while that writer runs; the contents themselves are read only
// where the owner synchronizes with the writer — a slot boundary, a run
// barrier, or a lock held around both sides.
type ring[T any] struct {
	buf   []T
	total atomic.Int64
}

// init allocates the ring's storage for size values.
func (r *ring[T]) init(size int) { r.buf = make([]T, size) }

// next returns the entry the next push would overwrite, for the writer to
// fill in place; commit publishes it.
func (r *ring[T]) next() *T { return &r.buf[r.total.Load()%int64(len(r.buf))] }

// commit publishes the entry returned by the matching next.
func (r *ring[T]) commit() { r.total.Add(1) }

// push appends v, overwriting the oldest value once the ring is full.
func (r *ring[T]) push(v T) {
	*r.next() = v
	r.commit()
}

// dropped returns how many values wraparound has overwritten.
func (r *ring[T]) dropped() int64 {
	if d := r.total.Load() - int64(len(r.buf)); d > 0 {
		return d
	}
	return 0
}

// occupancy returns the fill fraction, 1 once the ring has wrapped.
func (r *ring[T]) occupancy() float64 {
	if t := r.total.Load(); t < int64(len(r.buf)) {
		return float64(t) / float64(len(r.buf))
	}
	return 1
}

// appendTo appends the retained values to dst, oldest first.
func (r *ring[T]) appendTo(dst []T) []T {
	total, size := r.total.Load(), int64(len(r.buf))
	if total <= size {
		return append(dst, r.buf[:total]...)
	}
	start := total % size
	return append(append(dst, r.buf[start:]...), r.buf[:start]...)
}

// reset forgets every retained value.
func (r *ring[T]) reset() { r.total.Store(0) }
