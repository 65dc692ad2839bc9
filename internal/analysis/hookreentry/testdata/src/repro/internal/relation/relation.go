// Package relation is a fixture stub: just enough surface for the
// arcvet analyzers to resolve the real method sets they match on.
package relation

import "errors"

var ErrConflict = errors.New("write conflict")

type Tuple []any

type Relation struct{ rows []Tuple }

func (r *Relation) Insert(t Tuple)               {}
func (r *Relation) InsertMult(ts []Tuple)        {}
func (r *Relation) RemoveKeys(ks []Tuple)        {}
func (r *Relation) Add(t Tuple)                  {}
func (r *Relation) UnionAll(o *Relation)         {}
func (r *Relation) Clone() *Relation             { return &Relation{} }
func (r *Relation) Dedup() *Relation             { return r.Clone() }
func (r *Relation) Project(cols []int) *Relation { return r.Clone() }
func (r *Relation) Rename(n string) *Relation    { return r.Clone() }

type Snapshot struct{ rels map[string]*Relation }

func (s *Snapshot) Relation(name string) *Relation { return s.rels[name] }
func (s *Snapshot) Rels() map[string]*Relation     { return s.rels }

type CommitHook func(ver uint64)

type Store struct{ head *Snapshot }

func (st *Store) Head() *Snapshot                     { return st.head }
func (st *Store) SetCommitHook(h CommitHook)          {}
func (st *Store) Barrier(f func())                    { f() }
func (st *Store) Commit(ws *WriteSet) error           { return nil }
func (st *Store) Apply(f func(*WriteSet) error) error { return nil }
func (st *Store) Begin() *WriteSet                    { return &WriteSet{} }

type WriteSet struct{ base *Snapshot }

func (w *WriteSet) Base() *Snapshot                { return w.base }
func (w *WriteSet) Relation(name string) *Relation { return nil }
func (w *WriteSet) Rels() map[string]*Relation     { return nil }
func (w *WriteSet) Insert(name string, t Tuple)    {}
