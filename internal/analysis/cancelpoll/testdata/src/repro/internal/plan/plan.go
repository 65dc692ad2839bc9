package plan

import "repro/internal/exec"

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
