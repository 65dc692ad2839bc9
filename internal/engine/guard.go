package engine

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered at the engine API boundary
// (Prepare/Query/Rows.Next). The engine's parsers and planners return
// errors for every malformed input they anticipate; this guard is the
// backstop that turns the ones they don't — a grammar bug, an
// out-of-range index on a hostile byte stream — into a statement error
// instead of a process crash, which is the difference between one failed
// query and every session on a server dying together.
type PanicError struct {
	Op    string // the boundary that recovered: "prepare", "query", "rows"
	Val   any    // the recovered panic value
	Stack []byte // the goroutine stack at recovery, for server logs
}

// Error renders the panic value; the stack stays on the field so wire
// errors stay small while server logs keep the full trace.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: internal panic during %s: %v", e.Op, e.Val)
}

// recoverTo converts an in-flight panic into a *PanicError on *errp.
// Deferred at every engine entry point that evaluates client-influenced
// input.
func recoverTo(errp *error, op string) {
	if p := recover(); p != nil {
		*errp = &PanicError{Op: op, Val: p, Stack: debug.Stack()}
	}
}

// stackNow captures the current goroutine stack for PanicError built
// outside a deferred recoverTo (the Rows pull and push paths).
func stackNow() []byte { return debug.Stack() }
