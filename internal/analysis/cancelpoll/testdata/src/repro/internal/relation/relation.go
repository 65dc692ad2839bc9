// Package relation is a fixture stub for a numbering's runs.
package relation

type NumberedRun struct{ n int }

func (r *NumberedRun) Len() int        { return r.n }
func (r *NumberedRun) Dead(s int) bool { return s < 0 }

type Numbering struct{ runs [2]NumberedRun }

func (nb *Numbering) Runs() [2]NumberedRun { return nb.runs }
