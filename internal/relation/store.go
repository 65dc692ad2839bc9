// store.go implements the MVCC versioning layer over relations: a Store
// holds an immutable, generation-tagged Snapshot of the whole base-
// relation catalog, writers accumulate changes in a WriteSet against the
// snapshot they began from, and Commit publishes a new snapshot under
// first-committer-wins conflict detection. Readers never block and never
// see a torn state: once a *Relation appears in a committed snapshot its
// content never changes (its representation may, under its own lock:
// lazy index builds, and Clone re-basing it onto a segment it then shares
// with the clone — see version.go), so a query or cursor holding a
// snapshot streams exactly the data that was committed when it started.
// A version is an immutable base segment plus the delta a transaction
// wrote — the janus-datalog datom/transaction shape, at relation
// granularity.
package relation

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrConflict is returned by Store.Commit when another transaction
// committed a change to one of this write set's relations after the
// write set's base snapshot was taken — the first committer won.
var ErrConflict = errors.New("relation: write conflict: relation changed since the transaction began (first committer wins)")

// Store is the versioned catalog of base relations. The zero value is
// not usable; construct with NewStore.
type Store struct {
	// mu serializes commits (conflict check + head swap). Readers load
	// the head snapshot atomically and never take it.
	mu   sync.Mutex
	head atomic.Pointer[Snapshot]

	// hook, when set, observes every commit under mu before the new
	// snapshot becomes visible — the write-ahead ordering the durable
	// storage backend relies on. See SetCommitHook.
	hook atomic.Pointer[CommitHook]

	// Commit-path counters (observability, see Stats): commits counts
	// published write-set commits plus administrative Apply publishes,
	// conflicts counts first-committer-wins rejections.
	commits   atomic.Uint64
	conflicts atomic.Uint64
}

// OpKind enumerates the journaled write-set operations a CommitHook
// receives. Replaying a journal in order against the catalog state at
// the journal's start reproduces the committed state exactly.
type OpKind uint8

const (
	// OpCreate adds a new empty relation.
	OpCreate OpKind = iota + 1
	// OpDrop removes a relation from the catalog.
	OpDrop
	// OpInsert adds Mult occurrences of Tuple.
	OpInsert
	// OpDelete removes all occurrences of each tuple in Tuples.
	OpDelete
	// OpPut replaces (or adds) a relation wholesale with Rows/Mults —
	// the administrative Register/Apply path.
	OpPut
)

// LogOp is one journaled mutation. Only the fields relevant to Kind are
// set; tuples are deep copies owned by the op.
type LogOp struct {
	Kind   OpKind
	Rel    string
	Attrs  []string // OpCreate, OpPut
	Tuple  Tuple    // OpInsert
	Mult   int64    // OpInsert
	Tuples []Tuple  // OpDelete
	Rows   []Tuple  // OpPut
	Mults  []int64  // OpPut
}

// CommitHook observes a committed journal under the store's commit lock
// *before* the new snapshot is published: gen is the generation the
// commit will produce. Returning an error aborts the commit (nothing
// becomes visible) — the durable backend uses this to refuse commits it
// could not log.
type CommitHook func(gen uint64, ops []LogOp) error

// SetCommitHook installs the commit hook. Install before the store
// serves writers: write sets opened while no hook was set do not
// journal their operations.
func (st *Store) SetCommitHook(h CommitHook) {
	if h == nil {
		st.hook.Store(nil)
		return
	}
	st.hook.Store(&h)
}

// Barrier runs f with the current head snapshot while holding the
// commit lock: no commit is in flight, every hook invocation for
// generations <= head.Gen() has returned, and none for a later
// generation has started. This is the cut point checkpointing needs to
// rotate the log without losing or duplicating a record. f must not
// call back into the store.
func (st *Store) Barrier(f func(head *Snapshot)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f(st.head.Load())
}

// ApplyLogOp replays one journaled operation against a mutable catalog
// map — the WAL recovery path. The map's relations must be private to
// the caller (replay mutates them in place).
func ApplyLogOp(cat map[string]*Relation, op LogOp) error {
	switch op.Kind {
	case OpCreate:
		if _, ok := cat[op.Rel]; ok {
			return fmt.Errorf("relation: replay: %q already exists", op.Rel)
		}
		cat[op.Rel] = New(op.Rel, op.Attrs...)
	case OpDrop:
		if _, ok := cat[op.Rel]; !ok {
			return fmt.Errorf("relation: replay: unknown relation %q", op.Rel)
		}
		delete(cat, op.Rel)
	case OpInsert:
		r, ok := cat[op.Rel]
		if !ok {
			return fmt.Errorf("relation: replay: unknown relation %q", op.Rel)
		}
		r.InsertMult(op.Tuple, int(op.Mult))
	case OpDelete:
		r, ok := cat[op.Rel]
		if !ok {
			return fmt.Errorf("relation: replay: unknown relation %q", op.Rel)
		}
		r.RemoveKeys(op.Tuples)
	case OpPut:
		r := New(op.Rel, op.Attrs...)
		for i, t := range op.Rows {
			r.InsertMult(t, int(op.Mults[i]))
		}
		cat[op.Rel] = r
	default:
		return fmt.Errorf("relation: replay: unknown op kind %d", op.Kind)
	}
	return nil
}

// putOp snapshots a relation wholesale as an OpPut journal entry.
func putOp(r *Relation) LogOp {
	op := LogOp{Kind: OpPut, Rel: r.Name(), Attrs: append([]string(nil), r.Attrs()...)}
	r.Each(func(t Tuple, m int) {
		op.Rows = append(op.Rows, t.Clone())
		op.Mults = append(op.Mults, int64(m))
	})
	return op
}

// StoreStats is a point-in-time snapshot of the store's commit-path
// counters, the store half of the engine's observability surface.
type StoreStats struct {
	// Gen is the current commit generation. One snapshot exists per
	// generation, so it doubles as the count of snapshots ever published.
	Gen uint64
	// Commits counts published commits (write sets and Apply upserts;
	// empty-write-set no-ops excluded).
	Commits uint64
	// Conflicts counts Commit calls rejected first-committer-wins.
	Conflicts uint64
}

// Stats snapshots the commit-path counters.
func (st *Store) Stats() StoreStats {
	return StoreStats{
		Gen:       st.Gen(),
		Commits:   st.commits.Load(),
		Conflicts: st.conflicts.Load(),
	}
}

// Snapshot is one immutable version of the catalog: the relation map,
// the commit generation that produced it, and per-relation version tags
// (the generation at which each relation last changed) used for
// first-committer-wins conflict detection. Callers must not mutate the
// returned maps or the relations they contain.
type Snapshot struct {
	gen    uint64
	rels   map[string]*Relation
	relVer map[string]uint64
}

// NewStore builds a store whose initial snapshot (generation 1) holds
// the given relations, keyed by name.
func NewStore(rels ...*Relation) *Store { return NewStoreAt(1, rels...) }

// NewStoreAt builds a store whose initial snapshot carries the given
// generation — the recovery path, where a store reopened from a
// checkpoint plus WAL replay must keep numbering commits where the
// previous incarnation stopped.
func NewStoreAt(gen uint64, rels ...*Relation) *Store {
	snap := &Snapshot{
		gen:    gen,
		rels:   make(map[string]*Relation, len(rels)),
		relVer: make(map[string]uint64, len(rels)),
	}
	for _, r := range rels {
		snap.rels[r.Name()] = r
		snap.relVer[r.Name()] = gen
	}
	st := &Store{}
	st.head.Store(snap)
	return st
}

// Head returns the current committed snapshot.
func (st *Store) Head() *Snapshot { return st.head.Load() }

// Gen returns the current commit generation.
func (st *Store) Gen() uint64 { return st.head.Load().gen }

// Gen returns the snapshot's commit generation.
func (s *Snapshot) Gen() uint64 { return s.gen }

// Relation returns the named relation in this snapshot, or nil.
func (s *Snapshot) Relation(name string) *Relation { return s.rels[name] }

// Rels returns the snapshot's relation map. The map is shared and must
// not be mutated; copy before extending.
func (s *Snapshot) Rels() map[string]*Relation { return s.rels }

// Names returns the relation names in this snapshot, sorted.
func (s *Snapshot) Names() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Begin opens a write set against the current head snapshot. If the
// store has a commit hook, the write set journals its operations for
// the hook to log at commit.
func (st *Store) Begin() *WriteSet {
	return &WriteSet{
		base:    st.Head(),
		pend:    map[string]*pendingRel{},
		journal: st.hook.Load() != nil,
	}
}

// WriteSet accumulates a transaction's uncommitted changes: per-relation
// working copies (Clones of the base snapshot's relations, taken on first
// write; a Clone shares the base segment and copies only the delta) plus
// creations. It also serves reads inside the transaction:
// Relation and Rels overlay the working copies on the base snapshot, so
// a statement executed on the overlay sees the transaction's own writes
// exactly once. A WriteSet is not safe for concurrent use — a
// transaction belongs to one session.
type WriteSet struct {
	base *Snapshot
	pend map[string]*pendingRel
	// overlay caches the materialized Rels() map; it is dropped whenever
	// pend gains or replaces an entry (writes to an existing working copy
	// change that relation in place, not the map).
	overlay map[string]*Relation
	// journal records each applied operation in ops for the store's
	// commit hook (the WAL record). Off unless the store had a hook when
	// the write set was opened.
	journal bool
	ops     []LogOp
}

type pendingRel struct {
	work    *Relation
	created bool
	// dropped marks a pending DROP: the name resolves to nothing inside
	// the transaction and is removed from the catalog at Commit.
	dropped bool
}

// Base returns the snapshot the write set reads beneath its own writes.
func (ws *WriteSet) Base() *Snapshot { return ws.base }

// Dirty reports whether the write set holds any changes.
func (ws *WriteSet) Dirty() bool { return len(ws.pend) > 0 }

// Relation resolves a name through the overlay: the working copy if this
// transaction wrote the relation, the base snapshot's version otherwise.
func (ws *WriteSet) Relation(name string) *Relation {
	if p, ok := ws.pend[name]; ok {
		if p.dropped {
			return nil
		}
		return p.work
	}
	return ws.base.rels[name]
}

// Rels materializes the overlay map (base relations with this write
// set's working copies substituted) — the relation map a statement
// executed inside the transaction reads. It is the base snapshot's own
// map while nothing is written, and must not be mutated by callers.
func (ws *WriteSet) Rels() map[string]*Relation {
	if len(ws.pend) == 0 {
		return ws.base.rels
	}
	if ws.overlay == nil {
		m := make(map[string]*Relation, len(ws.base.rels)+len(ws.pend))
		for k, v := range ws.base.rels {
			m[k] = v
		}
		for k, p := range ws.pend {
			if p.dropped {
				delete(m, k)
				continue
			}
			m[k] = p.work
		}
		ws.overlay = m
	}
	return ws.overlay
}

// Held is Rels as it is now, held against the write set's later writes:
// the overlay with every working copy replaced by a Clone of it, which
// shares the working copy's base and copies its delta — at most the fold
// budget's rows (version.go). A reader that reads the relations over
// time, rather than capturing each once, reads this map.
func (ws *WriteSet) Held() map[string]*Relation {
	rels := ws.Rels()
	if len(ws.pend) == 0 {
		return rels
	}
	held := maps.Clone(rels)
	for name, p := range ws.pend {
		if !p.dropped {
			held[name] = p.work.Clone()
		}
	}
	return held
}

// setPending records name's pending state and drops the cached overlay.
func (ws *WriteSet) setPending(name string, p *pendingRel) {
	ws.pend[name] = p
	ws.overlay = nil
}

// working returns the mutable transaction-local copy of name, cloning
// the base version on first touch.
func (ws *WriteSet) working(name string) (*Relation, error) {
	if p, ok := ws.pend[name]; ok {
		if p.dropped {
			return nil, fmt.Errorf("relation: unknown relation %q", name)
		}
		return p.work, nil
	}
	base, ok := ws.base.rels[name]
	if !ok {
		return nil, fmt.Errorf("relation: unknown relation %q", name)
	}
	work := base.Clone()
	ws.setPending(name, &pendingRel{work: work})
	return work, nil
}

// Create adds a new empty relation to the write set. It fails if the
// name already exists in the overlay.
func (ws *WriteSet) Create(name string, attrs []string) error {
	if ws.Relation(name) != nil {
		return fmt.Errorf("relation: %q already exists", name)
	}
	for i, a := range attrs {
		for j := 0; j < i; j++ {
			if attrs[j] == a {
				return fmt.Errorf("relation: %q: duplicate attribute %q", name, a)
			}
		}
	}
	ws.setPending(name, &pendingRel{work: New(name, attrs...), created: true})
	if ws.journal {
		ws.ops = append(ws.ops, LogOp{Kind: OpCreate, Rel: name, Attrs: append([]string(nil), attrs...)})
	}
	return nil
}

// Drop removes a relation from the write set's overlay: the name stops
// resolving inside the transaction immediately, and Commit removes it
// from the catalog (a later commit touching the name conflicts — a drop
// is a write like any other). Dropping an unknown name is an error;
// creating the same name again after a drop in one transaction works.
func (ws *WriteSet) Drop(name string) error {
	if ws.Relation(name) == nil {
		return fmt.Errorf("relation: unknown relation %q", name)
	}
	ws.setPending(name, &pendingRel{dropped: true})
	if ws.journal {
		ws.ops = append(ws.ops, LogOp{Kind: OpDrop, Rel: name})
	}
	return nil
}

// Put replaces (or adds) a relation wholesale — the write-set form of
// the engine's Register.
func (ws *WriteSet) Put(r *Relation) {
	ws.setPending(r.Name(), &pendingRel{work: r, created: ws.Relation(r.Name()) == nil})
	if ws.journal {
		// Snapshot the content now: r is the live working copy and later
		// statements may mutate it, which must journal as separate ops.
		ws.ops = append(ws.ops, putOp(r))
	}
}

// Insert adds n occurrences of t to the named relation's working copy.
func (ws *WriteSet) Insert(name string, t Tuple, n int) error {
	work, err := ws.working(name)
	if err != nil {
		return err
	}
	if len(t) != work.Arity() {
		return fmt.Errorf("relation: %q takes %d columns, got %d", name, work.Arity(), len(t))
	}
	work.InsertMult(t, n)
	if ws.journal {
		ws.ops = append(ws.ops, LogOp{Kind: OpInsert, Rel: name, Tuple: t.Clone(), Mult: int64(n)})
	}
	return nil
}

// Delete removes the given distinct tuples (all their occurrences) from
// the named relation's working copy, returning the number of row
// occurrences removed. Which tuples are present is resolved through the
// overlay first: deleting nothing is not a write — no working copy, no
// journal entry, and so no conflict and no commit.
func (ws *WriteSet) Delete(name string, tuples []Tuple) (int, error) {
	if len(tuples) == 0 {
		return 0, nil
	}
	cur := ws.Relation(name)
	if cur == nil {
		return 0, fmt.Errorf("relation: unknown relation %q", name)
	}
	var present []Tuple
	for _, t := range tuples {
		if len(t) != cur.Arity() {
			return 0, fmt.Errorf("relation: %q takes %d columns, got %d", name, cur.Arity(), len(t))
		}
		if cur.Contains(t) {
			present = append(present, t)
		}
	}
	if len(present) == 0 {
		return 0, nil
	}
	work, err := ws.working(name)
	if err != nil {
		return 0, err
	}
	if ws.journal {
		op := LogOp{Kind: OpDelete, Rel: name, Tuples: make([]Tuple, len(tuples))}
		for i, t := range tuples {
			op.Tuples[i] = t.Clone()
		}
		ws.ops = append(ws.ops, op)
	}
	return work.RemoveKeys(present), nil
}

// Names returns the written relation names, sorted (for deterministic
// error messages and tests).
func (ws *WriteSet) Names() []string {
	out := make([]string, 0, len(ws.pend))
	for n := range ws.pend {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Commit publishes the write set as a new snapshot. Conflict detection
// is first-committer-wins, keyed on relation versions: if any relation
// this write set touched was changed (or created, or removed) by a
// commit after the write set's base snapshot, Commit returns an error
// wrapping ErrConflict and publishes nothing. Unchanged relations are
// shared structurally between snapshots. An empty write set commits as
// a no-op returning the current head.
func (st *Store) Commit(ws *WriteSet) (*Snapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	head := st.head.Load()
	if len(ws.pend) == 0 {
		return head, nil
	}
	if head != ws.base {
		for name := range ws.pend {
			bv, bok := ws.base.relVer[name]
			hv, hok := head.relVer[name]
			if bok != hok || bv != hv {
				st.conflicts.Add(1)
				return nil, fmt.Errorf("%w: %s", ErrConflict, name)
			}
		}
	}
	gen := head.gen + 1
	// Write-ahead: the hook logs the journal before the snapshot becomes
	// visible. A hook failure aborts the commit — an acknowledged commit
	// is always on stable storage first.
	if h := st.hook.Load(); h != nil {
		if err := (*h)(gen, ws.ops); err != nil {
			return nil, fmt.Errorf("relation: commit hook: %w", err)
		}
	}
	next := &Snapshot{
		gen:    gen,
		rels:   make(map[string]*Relation, len(head.rels)+len(ws.pend)),
		relVer: make(map[string]uint64, len(head.relVer)+len(ws.pend)),
	}
	for k, v := range head.rels {
		next.rels[k] = v
		next.relVer[k] = head.relVer[k]
	}
	for name, p := range ws.pend {
		if p.dropped {
			// A dropped name disappears from BOTH maps: a concurrent
			// writer that still has the old version tag sees a
			// present/absent mismatch and conflicts.
			delete(next.rels, name)
			delete(next.relVer, name)
			continue
		}
		next.rels[name] = p.work
		next.relVer[name] = gen
	}
	st.head.Store(next)
	st.commits.Add(1)
	return next, nil
}

// Apply commits an unconditional upsert of the given relations — the
// administrative Register path, which replaces rather than conflicts.
func (st *Store) Apply(rels ...*Relation) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	head := st.head.Load()
	gen := head.gen + 1
	if h := st.hook.Load(); h != nil {
		ops := make([]LogOp, len(rels))
		for i, r := range rels {
			ops[i] = putOp(r)
		}
		// Apply has no error path; a failed log is surfaced by the next
		// durable operation, and the upsert proceeds in memory.
		_ = (*h)(gen, ops)
	}
	next := &Snapshot{
		gen:    gen,
		rels:   make(map[string]*Relation, len(head.rels)+len(rels)),
		relVer: make(map[string]uint64, len(head.relVer)+len(rels)),
	}
	for k, v := range head.rels {
		next.rels[k] = v
		next.relVer[k] = head.relVer[k]
	}
	for _, r := range rels {
		next.rels[r.Name()] = r
		next.relVer[r.Name()] = gen
	}
	st.head.Store(next)
	st.commits.Add(1)
	return next
}
