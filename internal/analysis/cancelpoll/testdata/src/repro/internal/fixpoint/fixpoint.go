package fixpoint

type Rule struct{ Eval func() int }

type Options struct{ Check func() error }

func run(rules []Rule, opt Options) {
	for _, r := range rules { // want "fixpoint round loop never polls Options.Check"
		r.Eval()
	}
	for { // polls before each round: compliant
		if opt.Check() != nil {
			return
		}
		n := 0
		for _, r := range rules {
			n += r.Eval()
		}
		if n == 0 {
			return
		}
	}
}

// Loops with no rule or term invocation are out of scope.
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}
