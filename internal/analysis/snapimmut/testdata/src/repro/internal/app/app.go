package app

import "repro/internal/relation"

func bad(st *relation.Store) {
	snap := st.Head()
	r := snap.Relation("edge")
	r.Insert(relation.Tuple{1})           // want "Insert mutates a relation reached from a committed snapshot"
	snap.Relation("node").InsertMult(nil) // want "InsertMult mutates a relation reached from a committed snapshot"
	for _, rel := range snap.Rels() {
		rel.RemoveKeys(nil) // want "RemoveKeys mutates a relation reached from a committed snapshot"
	}
	rels := snap.Rels()
	rels["edge"].Add(relation.Tuple{2}) // want "Add mutates a relation reached from a committed snapshot"
}

func declForm(st *relation.Store) {
	var r = st.Head().Relation("edge")
	r.Insert(nil) // want "Insert mutates a relation reached from a committed snapshot"
}

func writeSetViews(ws *relation.WriteSet) {
	base := ws.Base()
	base.Relation("edge").UnionAll(nil) // want "UnionAll mutates a relation reached from a committed snapshot"
	r := ws.Relation("edge")
	r.InsertMult(nil) // want "InsertMult mutates a relation reached from a committed snapshot"
}

func good(st *relation.Store) {
	snap := st.Head()
	fresh := snap.Relation("edge").Clone()
	fresh.Insert(relation.Tuple{1}) // cloned first: private copy
	own := &relation.Relation{}
	own.Insert(relation.Tuple{2}) // locally constructed
	ws := st.Begin()
	ws.Insert("edge", relation.Tuple{3}) // WriteSet.Insert is the sanctioned write path
	d := snap.Relation("edge").Dedup()
	d.UnionAll(own) // Dedup returns a fresh relation
}

func rebind(st *relation.Store) {
	r := st.Head().Relation("edge")
	r = r.Clone() // rebinding to a clone clears the taint
	r.Insert(relation.Tuple{1})
}

func suppressed(st *relation.Store) {
	r := st.Head().Relation("boot")
	//arcvet:ignore snapimmut fixture: single-writer bootstrap, nothing is serving yet
	r.Insert(relation.Tuple{1})
}
