package eval

import "repro/internal/exec"

type evaluator struct{ polls int }

func (ev *evaluator) poll() error { return nil }

// groupAggregate stands in for exec.GroupAggregate: it drains in before
// it yields anything.
func groupAggregate(in exec.Seq) exec.Seq { return in }

// The γ of a compiled scope: the tuples stream inside the input closure
// (which polls per tuple, but that is not this loop), the groups come out
// of the range. A poll only in the producer does not cover the consumer.
func eachGroupUnpolled(ev *evaluator, f func(int) bool) {
	pre := func(yield func(int) bool) {
		for i := 0; i < 3; i++ {
			if ev.poll() != nil || !yield(i) {
				return
			}
		}
	}
	for g := range groupAggregate(pre) { // want "row-pull loop over an exec.Seq never calls poll"
		if !f(g) {
			break
		}
	}
}

func eachGroup(ev *evaluator, f func(int) bool) error {
	pre := func(yield func(int) bool) {}
	for g := range groupAggregate(pre) {
		if err := ev.poll(); err != nil {
			return err
		}
		if !f(g) {
			break
		}
	}
	return nil
}

// Driving a Seq by hand is not a loop: one group over no input.
func emptyGroup() (out int) {
	groupAggregate(func(func(int) bool) {})(func(g int) bool {
		out = g
		return false
	})
	return out
}
