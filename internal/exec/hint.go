package exec

import "sync/atomic"

// SizeHint is the size one materializing site of a prepared plan reached
// at the end of its last completed execution — the distinct tuples a
// Dedup or a recursive total held, the groups of a γ, the rows of a hash
// table — so that the next execution allocates that much at once instead
// of growing from empty (memory-grant feedback). A hint is capacity, never
// content: one too large wastes room and one too small costs growth, and
// neither changes a result. It is held where the plan is held, atomic so
// that concurrent executions of one plan share it (the last to complete
// wins), and capped at maxSizeHint, so that one large run does not make
// every later one allocate as much. A nil hint presizes nothing and
// records nothing: what runs off the prepared path passes nil.
type SizeHint struct{ n atomic.Int32 }

// maxSizeHint caps what a hint records.
const maxSizeHint = 1 << 14

// Size returns the size to allocate for: 0 for a nil hint, or one never
// recorded.
func (h *SizeHint) Size() int {
	if h == nil {
		return 0
	}
	return int(h.n.Load())
}

// Record notes the size n a completed execution reached.
func (h *SizeHint) Record(n int) {
	if h == nil {
		return
	}
	// Most executions repeat the last size: reading first leaves the
	// cache line shared between the goroutines that run the plan.
	if v := int32(min(n, maxSizeHint)); h.n.Load() != v {
		h.n.Store(v)
	}
}
