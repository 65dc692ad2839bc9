package server

import (
	"iter"

	"repro/internal/engine"
	"repro/internal/value"
)

// runner drives one cursor at a time push-style. It is a coroutine
// (iter.Pull) that runs the cursor's stream through engine.Rows.Each
// and encodes every row inside the stream's yield, straight into the
// Fetch batch. When the batch is full it suspends right there, inside
// the yield of the row it just encoded, so the stream holds its place —
// the rest of a bag row's occurrences included — and the next Fetch
// resumes it. A Fetch so costs one coroutine switch each way, not one
// per row.
//
// A runner outlives its cursor. When the stream ends it reports the
// cursor finished and waits, suspended, for the session to hand it the
// next one (session.idle). Who ends it is in docs/INVARIANTS.md, "A
// fetched row is not copied".
type runner struct {
	resume func() (finished, alive bool)
	stop   func()

	rows  *engine.Rows // the cursor being run; nil while idle
	e     Enc          // the batch being encoded
	max   int          // rows the batch may hold
	n     int          // rows encoded into the batch
	abort bool         // the resume unwinds the stream instead
}

func newRunner() *runner {
	rn := &runner{}
	rn.resume, rn.stop = iter.Pull(rn.loop)
	return rn
}

// loop is the coroutine body: run a cursor to its end, report it
// finished, wait for the next. It returns when the runner is stopped.
func (rn *runner) loop(yield func(finished bool) bool) {
	push := func(row []value.Value) bool {
		if rn.abort {
			return false
		}
		for _, v := range row {
			rn.e.Val(v)
		}
		rn.n++
		if rn.n < rn.max && len(rn.e.b)-rowsHeader < softBatchBytes {
			return true
		}
		// The batch is full. Suspending before the stream advances keeps
		// where a batch ends independent of whether more rows follow: a
		// stream that ends right here reports done in the next batch.
		return yield(false) && !rn.abort
	}
	for {
		rn.rows.Each(push)
		rn.rows = nil
		if !yield(true) {
			return
		}
	}
}

// fill runs cur's stream into one batch behind header, taking an idle
// runner if cur has none yet. It returns the batch, the rows in it, and
// whether the stream finished (its runner is then idle again).
func (sess *session) fill(cur *cursor, header []byte, maxRows int) (e Enc, n int, done bool) {
	rn := cur.run
	if rn == nil {
		if k := len(sess.idle); k > 0 {
			rn, sess.idle = sess.idle[k-1], sess.idle[:k-1]
		} else {
			rn = newRunner()
		}
		rn.rows, cur.run = cur.rows, rn
	}
	rn.e, rn.max, rn.n = Enc{b: header}, maxRows, 0
	done, _ = rn.resume()
	e, n = rn.e, rn.n
	rn.e = Enc{}
	if done {
		sess.idle = append(sess.idle, rn)
		cur.run = nil
	}
	return e, n, done
}

// abort unwinds the stream of a cursor suspended mid-batch: its runner
// resumes with push refusing every row, so Each finishes the engine
// cursor as Close would and the runner returns to the free list.
func (sess *session) abort(cur *cursor) {
	rn := cur.run
	if rn == nil {
		return
	}
	rn.abort = true
	// A runner whose coroutine died with a panic (the session is ending
	// then) reports not finished, and is dropped.
	if finished, _ := rn.resume(); finished {
		sess.idle = append(sess.idle, rn)
	}
	rn.abort = false
	cur.run = nil
}

// stopRunners ends every idle runner's goroutine when the session ends.
// Suspended ones were aborted onto the free list first (closeAllCursors).
func (sess *session) stopRunners() {
	for _, rn := range sess.idle {
		rn.stop()
	}
	sess.idle = nil
}
