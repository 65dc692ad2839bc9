package engine

import "repro/internal/sql"

type DB struct{}

// Unguarded entry point reaching the parser directly.
func (db *DB) Prepare(q string) error { // want "exported engine entry point Prepare reaches sql.Parse"
	return sql.Parse(q)
}

// Guarded with an inline recover literal: compliant.
func (db *DB) Query(q string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = nil
		}
	}()
	return sql.Parse(q)
}

// Guarded via the recoverTo idiom (defer of a same-package function
// whose body calls recover): compliant.
func (db *DB) Exec(q string) (err error) {
	defer recoverTo(&err)
	return parse(q)
}

func recoverTo(errp *error) {
	if r := recover(); r != nil {
		*errp = nil
	}
}

// Transitive: exported entry -> unexported helper -> parser.
func (db *DB) Analyze(q string) error { // want "exported engine entry point Analyze reaches sql.ParseStatement"
	return parse(q)
}

func parse(q string) error { return sql.ParseStatement(q) }

// The Rows pull: invoking the next iterator field resumes the operator
// tree, where hostile-input panics surface.
type Rows struct {
	next func() bool
	seq  func(yield func() bool)
}

func (r *Rows) Next() bool { // want "exported engine entry point Next reaches the Rows iterator pull"
	return r.next()
}

// Pulling behind a guard is compliant.
func (r *Rows) SafeNext() (ok bool) {
	defer func() { recover() }()
	return r.next()
}

// The Rows push: invoking the seq stream field runs the operator tree.
func (r *Rows) Each(f func() bool) { // want "exported engine entry point Each reaches the Rows stream push"
	r.seq(f)
}

// Pushing behind a guard in a helper is compliant.
func (r *Rows) SafeEach(f func() bool) { r.push(f) }

func (r *Rows) push(f func() bool) {
	defer func() { recover() }()
	r.seq(f)
}

// Methods on unexported receivers are not entry points.
type conn struct{}

func (c *conn) Handle(q string) error { return sql.Parse(q) }

// Exported functions that never reach a danger are compliant.
func Version() string { return "v0" }

// Suppression with a reason.
//
//arcvet:ignore boundaryguard fixture: input is a compile-time constant, not client data
func (db *DB) Bootstrap() error {
	return sql.Parse("create table boot(x int)")
}
