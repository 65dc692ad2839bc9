package plan

import (
	"repro/internal/exec"
	"repro/internal/relation"
)

type runCtx struct{ n int }

func (rc *runCtx) poll() error { return nil }

func drain(rc *runCtx, s exec.Seq) int {
	n := 0
	for v := range s { // want "row-pull loop over an exec.Seq never calls poll"
		n += v
	}
	for v := range s { // polls in its own body: compliant
		if rc.poll() != nil {
			break
		}
		n += v
	}
	for i := 0; i < 3; i++ { // enclosing loop polls for the inner stream
		if rc.poll() != nil {
			break
		}
		for v := range s {
			n += v
		}
	}
	return n
}

// Polls inside a closure nested in the loop body still count: the
// closure runs on the same pull.
func drainViaClosure(rc *runCtx, s exec.Seq) {
	for v := range s {
		ok := func() bool { return rc.poll() == nil }()
		if !ok {
			break
		}
		_ = v
	}
}

// Loops that never touch a Seq are out of scope.
func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func drainSuppressed(s exec.Seq) int {
	n := 0
	//arcvet:ignore cancelpoll fixture: bounded three-row constant relation
	for v := range s {
		n += v
	}
	return n
}

// A loop over a numbering's runs, or over the slots of one, folds rows
// and must poll as a row-pull loop does.
func foldRuns(rc *runCtx, nb *relation.Numbering) int {
	n := 0
	for _, run := range nb.Runs() { // want "loop over a relation.Numbering run never calls poll"
		n += run.Len()
	}
	runs := nb.Runs()
	for lo, end := 0, runs[0].Len(); lo < end; lo++ { // want "loop over a relation.Numbering run never calls poll"
		n++
	}
	for i := 0; i < len(runs) && runs[i].Len() > 0; i++ { // want "loop over a relation.Numbering run never calls poll"
		n++
	}
	// Compliant: the slot loop polls, and so its run loop reaches a poll.
	for _, run := range nb.Runs() {
		for lo := 0; lo < run.Len(); lo++ {
			if rc.poll() != nil {
				return n
			}
			// A loop over a stretch of slots, inside a polled loop, whose
			// header reads no run.
			for s := lo; s < lo+4; s++ {
				if !run.Dead(s) {
					n++
				}
			}
		}
	}
	return n
}
