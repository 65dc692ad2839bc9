// Package engine is a fixture stub of the accessor executions load
// their relation map through.
package engine

import "repro/internal/relation"

type DB struct{ store *relation.Store }

func (db *DB) relsIn(scope any) (map[string]*relation.Relation, error) {
	return db.store.Head().Rels(), nil
}

func execute(db *DB) {
	rels, _ := db.relsIn(nil)
	rels["edge"].Insert(relation.Tuple{1}) // want "Insert mutates a relation reached from a committed snapshot"
	out := rels["edge"].Project(nil)
	out.Insert(relation.Tuple{2}) // a result relation derived from the map is the execution's own
}
