package engine

import (
	"fmt"
	"iter"

	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/value"
)

// Rows is a streaming cursor over a statement's result, in the
// database/sql style: Next advances (expanding bag multiplicities into
// one step per occurrence), Scan converts the current row into Go
// values, Close releases the underlying iterator early. Each is the push
// form: it runs the stream and hands every occurrence to a callback,
// with no coroutine. A Rows is bound to one goroutine at a time;
// concurrent sessions each hold their own cursor.
type Rows struct {
	cols  []string
	seq   exec.Seq
	errFn func() error
	check func() error

	// next and stop pull seq; the first Next creates them, so a cursor
	// that is only pushed (Each) or closed unread never starts a
	// coroutine.
	next func() (relation.Tuple, int, bool)
	stop func()

	cur    relation.Tuple
	rem    int // remaining occurrences of cur (bag multiplicity)
	err    error
	closed bool

	// nrows counts row occurrences handed out; onDone, when set, fires
	// exactly once when the cursor finishes (exhaustion, error, or Close)
	// with the final count — the engine's tracing and slow-query-log hook.
	nrows  int64
	onDone func(rows int64)
}

// newRows wraps a streaming sequence. errFn reports the execution error
// (if any) once the stream stops; check is the per-advance cancellation
// poll.
func newRows(cols []string, seq exec.Seq, errFn func() error, check func() error) *Rows {
	return &Rows{cols: cols, seq: seq, errFn: errFn, check: check}
}

// relationRows streams an already-materialized result.
func relationRows(cols []string, rel *relation.Relation, check func() error) *Rows {
	return newRows(cols, exec.Scan(rel), func() error { return nil }, check)
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row occurrence, returning false when the
// stream is exhausted, an execution error occurred, or the query's
// context was cancelled — check Err after the loop.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.rem > 1 {
		r.rem--
		r.nrows++
		return true
	}
	// Polled once per pulled row, as Each polls once per yielded one: an
	// uncontended ctx.Err costs a few nanoseconds, a fraction of the
	// coroutine switch a pull pays, and it keeps cancellation prompt at
	// the API boundary even for sources with no internal poll sites.
	if r.check != nil {
		if err := r.check(); err != nil {
			r.fail(err)
			return false
		}
	}
	t, m, ok := r.pull()
	if !ok {
		if !r.closed {
			r.finish()
		}
		return false
	}
	r.cur, r.rem = t, m
	r.nrows++
	return true
}

// pull advances the underlying iterator with the engine's recover
// backstop: a panic inside the operator tree (the streaming analogue of
// a Query-time evaluator panic) fails this cursor instead of killing the
// process. The coroutine is already dead after a panic, so the cursor is
// marked closed without calling stop.
func (r *Rows) pull() (t relation.Tuple, m int, ok bool) {
	if r.next == nil {
		r.next, r.stop = iter.Pull2(r.seq)
	}
	defer func() {
		if p := recover(); p != nil {
			r.err = &PanicError{Op: "rows", Val: p, Stack: stackNow()}
			r.closed = true
			r.cur, r.rem = nil, 0
			t, m, ok = nil, 0, false
			r.fireDone()
		}
	}()
	return r.next()
}

// Each pushes the cursor's remaining row occurrences to f, one call per
// occurrence, and then finishes the cursor as exhaustion or Close does:
// Err reports the execution error, if any, and the completion hook
// fires. f returning false stops the stream early, as Close would. The
// row passed to f belongs to the operator tree and is valid only until
// f returns ("A plan row lives until its yield returns"); f may suspend
// (a server runner yields to its Fetch there), but must not call Next,
// Each or Close on r.
//
// The stream runs on the caller's goroutine, with no coroutine switch:
// cancellation is polled once per yielded row, and a panic inside the
// operator tree — or inside f — fails the cursor with a *PanicError
// instead of unwinding the caller. A cursor already advanced by Next
// pushes the rest of its pull.
func (r *Rows) Each(f func(row []value.Value) bool) {
	if r.closed || r.err != nil {
		return
	}
	if r.next != nil {
		for r.Next() && f(r.cur) {
		}
	} else {
		r.push(f)
	}
	if !r.closed {
		r.finish()
	}
}

// push runs the stream into f under the engine's recover backstop. A
// panic has already unwound the stream, so there is nothing to stop:
// Each finishes the cursor with the PanicError, as pull does.
func (r *Rows) push(f func(row []value.Value) bool) {
	defer func() {
		if p := recover(); p != nil {
			r.err = &PanicError{Op: "rows", Val: p, Stack: stackNow()}
		}
	}()
	r.seq(func(t relation.Tuple, m int) bool {
		if r.check != nil {
			if err := r.check(); err != nil {
				r.err = err
				return false
			}
		}
		for ; m > 0; m-- {
			r.nrows++
			if !f(t) {
				return false
			}
		}
		return true
	})
}

// Row returns the current row without copying it. The slice belongs to
// the operator tree and is valid only until the next call to Next (or
// Close): read it, encode it, or copy it out, but do not keep or modify
// it. A caller that keeps rows uses Values.
func (r *Rows) Row() []value.Value { return r.cur }

// Values returns a copy of the current row, which the caller owns and
// may keep after the cursor moves on.
func (r *Rows) Values() []value.Value {
	out := make([]value.Value, len(r.cur))
	copy(out, r.cur)
	return out
}

// Scan converts the current row into dest pointers: *int, *int64,
// *float64, *string, *bool, *value.Value, or *any (NULL scans as nil
// into *any and as value.Null() into *value.Value; other destinations
// reject it).
func (r *Rows) Scan(dest ...any) error {
	// cur is cleared on exhaustion, error, and Close, so a misuse never
	// reads a stale (or zero) tuple — it gets a positional error instead.
	if r.cur == nil {
		if r.closed {
			return fmt.Errorf("engine: Scan after Rows was exhausted or closed")
		}
		return fmt.Errorf("engine: Scan before Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("engine: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		if err := scanValue(r.cur[i], d); err != nil {
			return fmt.Errorf("engine: column %d (%s): %w", i, r.colName(i), err)
		}
	}
	return nil
}

func (r *Rows) colName(i int) string {
	if i < len(r.cols) {
		return r.cols[i]
	}
	return fmt.Sprintf("col%d", i+1)
}

// scanValue converts one value into a destination pointer.
func scanValue(v value.Value, dest any) error {
	switch d := dest.(type) {
	case *value.Value:
		*d = v
		return nil
	case *any:
		switch v.Kind() {
		case value.KindNull:
			*d = nil
		case value.KindInt:
			*d = v.AsInt()
		case value.KindFloat:
			*d = v.AsFloat()
		case value.KindString:
			*d = v.AsString()
		case value.KindBool:
			*d = v.AsBool()
		}
		return nil
	case *int64:
		if v.Kind() != value.KindInt {
			return fmt.Errorf("cannot scan %s into *int64", v)
		}
		*d = v.AsInt()
		return nil
	case *int:
		if v.Kind() != value.KindInt {
			return fmt.Errorf("cannot scan %s into *int", v)
		}
		*d = int(v.AsInt())
		return nil
	case *float64:
		if !v.IsNumeric() {
			return fmt.Errorf("cannot scan %s into *float64", v)
		}
		*d = v.AsFloat()
		return nil
	case *string:
		if v.Kind() != value.KindString {
			return fmt.Errorf("cannot scan %s into *string", v)
		}
		*d = v.AsString()
		return nil
	case *bool:
		if v.Kind() != value.KindBool {
			return fmt.Errorf("cannot scan %s into *bool", v)
		}
		*d = v.AsBool()
		return nil
	}
	return fmt.Errorf("unsupported Scan destination %T", dest)
}

// Err reports the first error the stream hit (an execution error or the
// context's cancellation error); nil after a clean exhaustion.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. It is safe to call more than once and after
// exhaustion.
func (r *Rows) Close() error {
	if !r.closed {
		r.finish()
	}
	return r.err
}

// fail stops the cursor with an error.
func (r *Rows) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	if !r.closed {
		r.closed = true
		r.cur, r.rem = nil, 0
		if r.stop != nil {
			r.stop()
		}
	}
	r.fireDone()
}

// finish stops the iterator and surfaces any execution error. The
// current tuple is dropped so a late Scan errors instead of reading
// stale data.
func (r *Rows) finish() {
	r.closed = true
	r.cur, r.rem = nil, 0
	if r.stop != nil {
		r.stop()
	}
	if r.err == nil {
		r.err = r.errFn()
	}
	r.fireDone()
}

// fireDone invokes the completion hook exactly once.
func (r *Rows) fireDone() {
	if r.onDone != nil {
		f := r.onDone
		r.onDone = nil
		f(r.nrows)
	}
}
