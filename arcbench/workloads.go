package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// opKind says how an op travels: which client call carries it at depth
// 0 and which engine call at depth 1.
type opKind uint8

const (
	opQuery   opKind = iota // prepared query: client.Stmt.QueryAll
	opAdhoc                 // one-shot text: client.Conn.Query (Prepare + Query + Close)
	opExec                  // prepared DML, autocommit: client.Stmt.Exec
	opTxBatch               // Begin + one Exec per batch row + Commit, one op
)

// class is one named kind of op. Every metric of the form
// client.<class>.* refers to these names.
type class struct {
	name  string
	lang  Lang
	kind  opKind
	src   string // prepared text; {T} is the client's own table. For opAdhoc the parametric twin the oracle runs.
	pred  string // Datalog: predicate returned
	shape string // three_lang: classes of one shape must return equal bags
	// compile marks ad-hoc classes whose texts miss the statement cache:
	// every op pays sql.Parse and plan.Compile, and depth 2 includes them.
	compile bool
	write   bool
	table   string // writes: the relation written ({T} as in src)
}

// answer is what the oracle expects of an op: row occurrences (rows
// affected for writes) and an order-independent checksum of the rows.
type answer struct {
	rows int
	sum  uint64
}

// op is one scripted request.
type op struct {
	class int
	args  []Value
	text  string // opAdhoc: the literal statement
	// alt is a second text of the same class for the engine-depth replay
	// (for a cache-missing class, one depth 0 has not just compiled) and
	// altWant the answer it must get.
	alt     string
	altWant answer
	batch   [][]Value // opTxBatch: arguments of each statement in the transaction
	// Writes: the tuples the op removes and adds. The durability model
	// and the depth-2 replay on a bare relation.Store are driven by these.
	del, ins []Tuple
	want     answer
}

// workload is one of the five traffic mixes.
type workload struct {
	name     string
	why      string
	classes  []class
	durable  bool // engine.OpenDurable with fsync per commit
	setLogic bool // ARC under set semantics
	// group is the number of consecutive script ops that leave the data
	// as they found it; loops stop only on group boundaries.
	group int
	// ckptEvery makes client 0 call db.Checkpoint() after every so many
	// of its ops (0 = never).
	ckptEvery int
	// ladderGroup is the group size of the single-client ladder cycle
	// (0 = group) and ladderGroups the fixed number of such groups the
	// traced pass replays at each depth, so its counts repeat exactly.
	ladderGroup, ladderGroups int
	// mainRel is the relation the relation.* side probes run on.
	mainRel string
	data    func(rng *rand.Rand) []*Relation
	// script builds the two clients' cycles and the single-client cycle
	// of the ladder (nil = client 0's).
	script func(rng *rand.Rand, w *workload) (clients [2][]op, ladder []op)
}

const nClients = 2

func (w *workload) classIndex(name string) int {
	for i, c := range w.classes {
		if c.name == name {
			return i
		}
	}
	panic("arcbench: unknown class " + name)
}

// table is the relation client c writes in the durable workload.
func table(c int) string { return fmt.Sprintf("W%d", c) }

func (c class) text(client int) string { return strings.ReplaceAll(c.src, "{T}", table(client)) }

func (c class) rel(client int) string { return strings.ReplaceAll(c.table, "{T}", table(client)) }

var workloads = []*workload{oltpRead, analyticRead, threeLang, durableWrite, mixedRW}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// interleave spreads classes over one cycle as evenly as their counts
// allow (largest remainder), so a slice boundary cuts every cycle at
// much the same mix. The order does not depend on the seed.
func interleave(counts []int) []int {
	total := 0
	for _, n := range counts {
		total += n
	}
	out := make([]int, 0, total)
	emitted := make([]int, len(counts))
	for pos := 1; pos <= total; pos++ {
		best, bestLag := -1, 0.0
		for c, n := range counts {
			lag := float64(n)*float64(pos)/float64(total) - float64(emitted[c])
			if emitted[c] < n && (best < 0 || lag > bestLag) {
				best, bestLag = c, lag
			}
		}
		out = append(out, best)
		emitted[best]++
	}
	return out
}

func vals(xs ...int) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = intVal(x)
	}
	return out
}

func tuple(a, b int) Tuple { return Tuple{intVal(a), intVal(b)} }

// bigR is R(A,B): keys 0..n-1, B spread over 997 values from a
// seed-chosen offset.
func bigR(rng *rand.Rand, n int) *Relation {
	r := newRelation("R", "A", "B")
	off := rng.Intn(997)
	for i := 0; i < n; i++ {
		addRow(r, i, (i+off)%997)
	}
	return r
}

// ---- oltp_read ---------------------------------------------------------

const (
	stmtCacheSize = 128 // engine.DefaultStmtCacheSize

	oltpRows = 100_000
	hotPool  = 32   // distinct hot texts: re-used before 128 other statements pass, so they stay cached
	coldPool = 4096 // distinct cold texts, half per client: never re-used within the cache's reach
	pointSQL = "select R.A, R.B from R where R.A = $1"
)

func pointText(key int) string { return fmt.Sprintf("select R.A, R.B from R where R.A = %d", key) }

var oltpRead = &workload{
	name: "oltp_read",
	why:  "point reads over the wire: 80% prepared, 10% ad-hoc cached, 10% ad-hoc uncached; server and engine do the work, exec almost none",
	classes: []class{
		{name: "point_prepared", kind: opQuery, src: pointSQL},
		{name: "point_adhoc_hot", kind: opAdhoc, src: pointSQL},
		{name: "point_adhoc_cold", kind: opAdhoc, src: pointSQL, compile: true},
	},
	group: 1, ladderGroup: 10, ladderGroups: 1800, mainRel: "R",
	data: func(rng *rand.Rand) []*Relation { return []*Relation{bigR(rng, oltpRows)} },
	script: func(rng *rand.Rand, w *workload) (clients [2][]op, ladder []op) {
		keys := rng.Perm(oltpRows)
		hot, cold, alt := keys[:hotPool], keys[hotPool:hotPool+coldPool], keys[hotPool+coldPool:]
		pattern := interleave([]int{8, 1, 1})
		per := coldPool / nClients
		for c := range clients {
			h, k := 0, 0
			for len(clients[c]) < per*len(pattern) {
				for _, cl := range pattern {
					o := op{class: cl}
					switch cl {
					case 0:
						o.args = vals(rng.Intn(oltpRows))
					case 1:
						key := hot[h%hotPool]
						h++
						o.args, o.text, o.alt = vals(key), pointText(key), pointText(key)
					case 2:
						key := cold[c*per+k]
						o.args, o.text, o.alt = vals(key), pointText(key), pointText(alt[c*per+k])
						k++
					}
					clients[c] = append(clients[c], o)
				}
			}
		}
		return clients, nil
	},
}

// ---- analytic_read -----------------------------------------------------

const (
	rangeSQL = "select R.A, R.B from R where R.A >= $1 and R.A < $2"
	joinSQL  = "select J1.V, J2.W from J1, J2 where J1.X = J2.Y"
	groupSQL = "select R.B, count(*) as n from R group by R.B"
)

// analyticCycle is the final op cycle (see README): counts per class in
// the order of the classes below.
var analyticCycle = []int{80, 2, 5, 1}

var analyticRead = &workload{
	name: "analytic_read",
	why:  "prepared range scans, a 10k-row scan, a hash join and a 100k-row group-by: exec and relation indexes do the work; parser, planner and statement cache are bypassed",
	classes: []class{
		{name: "range100", kind: opQuery, src: rangeSQL},
		{name: "scan10k", kind: opQuery, src: rangeSQL},
		{name: "join1000", kind: opQuery, src: joinSQL},
		{name: "group997", kind: opQuery, src: groupSQL},
	},
	group: 1, ladderGroup: 88, ladderGroups: 12, mainRel: "R",
	data: func(rng *rand.Rand) []*Relation {
		j1, j2 := newRelation("J1", "X", "V"), newRelation("J2", "Y", "W")
		for i, p := range rng.Perm(1000) {
			addRow(j1, i, 1000+p)
			addRow(j2, p, 2000+i)
		}
		return []*Relation{bigR(rng, oltpRows), j1, j2}
	},
	script: func(rng *rand.Rand, w *workload) (clients [2][]op, ladder []op) {
		pattern := interleave(analyticCycle)
		for c := range clients {
			for rep := 0; rep < 8; rep++ {
				for _, cl := range pattern {
					o := op{class: cl}
					switch cl {
					case 0:
						lo := rng.Intn(oltpRows - 100)
						o.args = vals(lo, lo+100)
					case 1:
						lo := rng.Intn(oltpRows - 10_000)
						o.args = vals(lo, lo+10_000)
					}
					clients[c] = append(clients[c], o)
				}
			}
		}
		return clients, nil
	},
}

// ---- three_lang --------------------------------------------------------

var threeLang = &workload{
	name: "three_lang",
	why:  "the paper's join, grouped sum and transitive closure, each prepared in SQL, ARC and Datalog with equal op counts: eval, datalog, fixpoint and plan/exec do most of the work",
	classes: []class{
		{name: "sql_join", lang: langSQL, shape: "join", src: "select distinct R.A from R, S where R.B = S.B and S.C = 0"},
		{name: "arc_join", lang: langARC, shape: "join", src: "{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}"},
		{name: "datalog_join", lang: langDatalog, shape: "join", pred: "Q", src: "Q(a) :- R(a,b), S(b,0)."},
		{name: "sql_group", lang: langSQL, shape: "group", src: "select G.A, sum(G.B) as sm from G group by G.A"},
		{name: "arc_group", lang: langARC, shape: "group", src: "{Q(A, sm) | ∃r ∈ G, γ r.A [Q.A = r.A ∧ Q.sm = sum(r.B)]}"},
		{name: "datalog_group", lang: langDatalog, shape: "group", pred: "Q", src: "Q(a,sm) :- G(a,_), sm = sum b : {G(a,b)}."},
		{name: "sql_tc", lang: langSQL, shape: "tc", src: "with recursive A (s, t) as (select P.s, P.t from P union select P.s, A.t from P, A where P.t = A.s) select A.s, A.t from A"},
		{name: "arc_tc", lang: langARC, shape: "tc", src: "{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}"},
		{name: "datalog_tc", lang: langDatalog, shape: "tc", pred: "A", src: "A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y)."},
	},
	setLogic: true,
	group:    1, ladderGroup: 9, ladderGroups: 60, mainRel: "G",
	data: threeLangData,
	script: func(rng *rand.Rand, w *workload) (clients [2][]op, ladder []op) {
		for c := range clients {
			// Client 1 starts half a cycle on, so the two do not run the
			// same class in lockstep.
			for i := range w.classes {
				clients[c] = append(clients[c], op{class: (i + c*len(w.classes)/2) % len(w.classes)})
			}
		}
		return clients, nil
	},
}

// threeLangData builds R(A,B) 800, S(B,C) 450, G(A,B) 600 distinct
// random pairs and P = the 40-node chain. Which pairs exist comes from a
// fixed source, so every seed runs an isomorphic instance of the same
// size and the same answer sizes; the seed relabels the join and group
// domains (C is filtered on and G.B is summed, so those stay).
func threeLangData(rng *rand.Rand) []*Relation {
	shape := rand.New(rand.NewSource(1))
	pairs := func(name, a1, a2 string, n, d1, d2 int, p1, p2 []int) *Relation {
		r := newRelation(name, a1, a2)
		seen := map[[2]int]bool{}
		for len(seen) < n {
			k := [2]int{shape.Intn(d1), shape.Intn(d2)}
			if seen[k] {
				continue
			}
			seen[k] = true
			a, b := k[0], k[1]
			if p1 != nil {
				a = p1[a]
			}
			if p2 != nil {
				b = p2[b]
			}
			addRow(r, a, b)
		}
		return r
	}
	permB := rng.Perm(200)
	p := newRelation("P", "s", "t")
	for i := 0; i < 39; i++ {
		addRow(p, i, i+1)
	}
	return []*Relation{
		pairs("R", "A", "B", 800, 400, 200, rng.Perm(400), permB),
		pairs("S", "B", "C", 450, 200, 3, permB, nil),
		pairs("G", "A", "B", 600, 60, 100, rng.Perm(60), nil),
		p,
	}
}

// ---- durable_write -----------------------------------------------------

const (
	durableRows   = 2000
	durableGroups = 64
	batchRows     = 32
	batchBase     = 100_000
)

var durableWrite = &workload{
	name: "durable_write",
	why:  "autocommit inserts, updates, deletes and 32-row transactions on a WAL with fsync per commit, one table per client: relation.Store commit and storage do the work",
	classes: []class{
		{name: "insert_auto", table: "{T}", kind: opExec, write: true, src: "insert into {T} values ($1, $2)"},
		{name: "update_auto", table: "{T}", kind: opExec, write: true, src: "update {T} set B = $2 where A = $1"},
		{name: "tx_batch32", table: "{T}", kind: opTxBatch, write: true, src: "insert into {T} values ($1, $2)"},
		{name: "delete_auto", table: "{T}", kind: opExec, write: true, src: "delete from {T} where {T}.A = $1"},
		{name: "delete_batch32", table: "{T}", kind: opExec, write: true, src: "delete from {T} where {T}.A >= $1 and {T}.A < $2"},
	},
	durable: true,
	group:   5, ckptEvery: 1000, ladderGroups: 40, mainRel: "W0",
	data: func(rng *rand.Rand) []*Relation {
		var rels []*Relation
		for c := 0; c < nClients; c++ {
			r := newRelation(table(c), "A", "B")
			for i := 0; i < durableRows; i++ {
				addRow(r, i, rng.Intn(1_000_000))
			}
			rels = append(rels, r)
		}
		return rels
	},
	script: func(rng *rand.Rand, w *workload) (clients [2][]op, ladder []op) {
		for c := range clients {
			for g := 0; g < durableGroups; g++ {
				key, v1, v2 := durableRows+g, rng.Intn(1_000_000), rng.Intn(1_000_000)
				lo := batchBase + g*batchRows
				batch := op{class: 2}
				for i := 0; i < batchRows; i++ {
					v := rng.Intn(1_000_000)
					batch.batch = append(batch.batch, vals(lo+i, v))
					batch.ins = append(batch.ins, tuple(lo+i, v))
				}
				clients[c] = append(clients[c],
					op{class: 0, args: vals(key, v1), ins: []Tuple{tuple(key, v1)}},
					op{class: 1, args: vals(key, v2), del: []Tuple{tuple(key, v1)}, ins: []Tuple{tuple(key, v2)}},
					batch,
					op{class: 3, args: vals(key), del: []Tuple{tuple(key, v2)}},
					op{class: 4, args: vals(lo, lo+batchRows), del: batch.ins},
				)
			}
		}
		return clients, nil
	},
}

// ---- mixed_rw ----------------------------------------------------------

const mixedRows = 4000

var mixedRW = &workload{
	name: "mixed_rw",
	why:  "one client autocommits inserts and deletes into the 4000-row relation the other client point- and range-reads: every commit clones it, drops its indexes and re-prepares the reader",
	classes: []class{
		{name: "write_insert", table: "R", kind: opExec, write: true, src: "insert into R values ($1, $2)"},
		{name: "write_delete", table: "R", kind: opExec, write: true, src: "delete from R where R.A = $1"},
		{name: "read_point", kind: opQuery, src: pointSQL},
		{name: "read_range100", kind: opQuery, src: rangeSQL},
	},
	group: 2, ladderGroup: 82, ladderGroups: 20, mainRel: "R",
	data: func(rng *rand.Rand) []*Relation { return []*Relation{bigR(rng, mixedRows)} },
	script: func(rng *rand.Rand, w *workload) (clients [2][]op, ladder []op) {
		// Of every ten reads three are points and seven ranges: with more
		// points the median read is a bare loopback round trip, which on a
		// two-core box flips between two scheduler modes from run to run.
		read := func(i int) op {
			if i%10 >= 3 {
				lo := rng.Intn(mixedRows - 100)
				return op{class: 3, args: vals(lo, lo+100)}
			}
			return op{class: 2, args: vals(rng.Intn(mixedRows))}
		}
		var writes []op
		for g := 0; g < 256; g++ {
			key, v := mixedRows+g, rng.Intn(997)
			writes = append(writes,
				op{class: 0, args: vals(key, v), ins: []Tuple{tuple(key, v)}},
				op{class: 1, args: vals(key), del: []Tuple{tuple(key, v)}})
		}
		clients[0] = writes
		for i := 0; i < 4096; i++ {
			clients[1] = append(clients[1], read(i))
		}
		// The single-client ladder cycle: each write followed by forty
		// reads, about the ratio the two clients run at, so reads meet a
		// fresh generation as often as they do under load.
		for _, wr := range writes[:64] {
			ladder = append(ladder, wr)
			for i := 0; i < 40; i++ {
				ladder = append(ladder, read(i))
			}
		}
		return clients, ladder
	},
}
