package engine

import (
	"repro/internal/relation"
)

// NewPanicRowsForTest builds a Rows whose stream yields n single-column
// placeholder rows and then panics with val. Operator-tree panics are
// deliberately unreachable from valid input, so the panic-path tests —
// the Rows.pull and Rows.push recovers here, and the PanicError →
// INTERNAL error-frame conversion in the server — use this to drive the
// backstop
// deterministically. Not for production use.
func NewPanicRowsForTest(cols []string, n int, val any) *Rows {
	return newRows(cols, func(yield func(relation.Tuple, int) bool) {
		for i := 0; i < n; i++ {
			if !yield(relation.Tuple{relation.Lift(i)}, 1) {
				return
			}
		}
		panic(val)
	}, func() error { return nil }, nil)
}
