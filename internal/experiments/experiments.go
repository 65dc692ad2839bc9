// Package experiments implements the reproduction harness: one runner per
// figure/claim of the paper (the index is the register calls in
// exp_core.go, exp_lang.go and exp_misc.go, each runner's comment naming
// its figure). Every runner produces a Report with the paper's claim, what
// this implementation measures, and a pass/fail verdict; cmd/arcrepro
// prints the table.
package experiments

import (
	"fmt"
	"sort"
)

// Report is the outcome of one experiment.
type Report struct {
	// ID is the experiment identifier (E01…E21).
	ID string
	// Figure names the paper artifact reproduced.
	Figure string
	// Title is a one-line description.
	Title string
	// PaperClaim states what the paper says should happen.
	PaperClaim string
	// Measured states what this implementation observed.
	Measured string
	// Pass reports whether Measured confirms PaperClaim.
	Pass bool
	// Details carries multi-line evidence for the harness output.
	Details string
}

// Runner computes one experiment.
type Runner func() Report

var registry = map[string]Runner{}
var order []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("duplicate experiment " + id)
	}
	registry[id] = r
	order = append(order, id)
	sort.Strings(order)
}

// IDs returns all experiment ids in order.
func IDs() []string { return append([]string{}, order...) }

// Run executes one experiment by id.
func Run(id string) (Report, error) {
	r, ok := registry[id]
	if !ok {
		return Report{}, fmt.Errorf("unknown experiment %q", id)
	}
	return safeRun(id, r), nil
}

// RunAll executes every experiment in order.
func RunAll() []Report {
	out := make([]Report, 0, len(order))
	for _, id := range order {
		out = append(out, safeRun(id, registry[id]))
	}
	return out
}

func safeRun(id string, r Runner) (rep Report) {
	defer func() {
		if p := recover(); p != nil {
			rep = Report{ID: id, Pass: false, Measured: fmt.Sprintf("panic: %v", p)}
		}
	}()
	rep = r()
	rep.ID = id
	return rep
}

// fail builds a failing report for an unexpected error.
func fail(figure, title, claim string, err error) Report {
	return Report{Figure: figure, Title: title, PaperClaim: claim,
		Measured: "error: " + err.Error(), Pass: false}
}
