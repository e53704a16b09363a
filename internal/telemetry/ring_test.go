package telemetry

import (
	"reflect"
	"testing"
)

// TestRingWrap walks one ring through empty, filling, full and wrapped
// states, checking the oldest-first window and the health counts at each,
// then resets it.
func TestRingWrap(t *testing.T) {
	var r ring[int]
	r.init(3)
	if got := r.appendTo(nil); got != nil {
		t.Fatalf("empty ring retained %v", got)
	}
	for v := 1; v <= 7; v++ {
		if v%2 == 0 {
			*r.next() = v
			r.commit()
		} else {
			r.push(v)
		}
		n := min(v, 3)
		want := make([]int, 0, n)
		for w := v - n + 1; w <= v; w++ {
			want = append(want, w)
		}
		if got := r.appendTo(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d pushes retained %v, want %v", v, got, want)
		}
		if d := r.dropped(); d != int64(v-n) {
			t.Fatalf("after %d pushes dropped = %d, want %d", v, d, v-n)
		}
		if o := r.occupancy(); o != float64(n)/3 {
			t.Fatalf("after %d pushes occupancy = %v, want %v", v, o, float64(n)/3)
		}
	}
	if got := r.appendTo([]int{0}); !reflect.DeepEqual(got, []int{0, 5, 6, 7}) {
		t.Fatalf("appendTo kept no prefix: %v", got)
	}
	r.reset()
	if got := r.appendTo(nil); got != nil || r.dropped() != 0 || r.occupancy() != 0 {
		t.Fatalf("reset ring retained %v, dropped %d, occupancy %v", got, r.dropped(), r.occupancy())
	}
}
