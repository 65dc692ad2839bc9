package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Nothing inside the program is
// instrumented: spans are recorded here, around the call. The spans of
// one replayed op share a request id; an op's depth-1 span names its
// depth-0 span as parent, and so on down — the parent is the call that,
// in the real request, would have caused the child.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request_id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent, request int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// p50 is the median duration in µs of the spans with the given name,
// and their count.
func (t *tracer) p50(name string) (float64, int) {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, us(s.End-s.Start))
		}
	}
	return percentile(d, 50), len(d)
}

// flush writes the spans as JSON lines.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Depth names, shallowest first. A layer's self time is its depth's p50
// minus the next depth's.
const (
	depthWire   = "d0.wire"
	depthEngine = "d1.engine"
	depthBelow  = "d2.below" // language front end + exec, or relation.Store + storage
)

// ladderCounts are the exact counts of the traced pass: they depend on
// the seed and the fixed op counts only, never on timing.
type ladderCounts struct {
	ops                        int
	frames, rows, fetchBatches uint64
	fixpointQueries            int
	fixpointRounds, deltaRows  int
	walCommits, walBytes       uint64
	walUserBytes               int64
	// After a checkpoint and a fixed tail on the store whose history is
	// the traced pass alone: directory bytes, and bytes of live values.
	checkpointBytes, diskBytes, liveUserBytes int64
}

// ladderResult is the traced pass reduced to per-class values.
type ladderResult struct {
	counts   ladderCounts
	failed   int
	firstErr error
	// per class, µs
	d0, d1, d2                         map[string]float64
	run                                map[string]float64 // exec.run part of depth 2, classes that compile per op
	commit, commitNoFsync, commitFsync map[string]float64 // write classes at depth 2: bare store, +WAL, +fsync
	codec                              map[string]float64
	langParse, planCompile, prepareHit map[string]float64 // side probes, per class text
	// probes are the side probes that are not per class, by metric name;
	// one that does not apply to the workload is absent.
	probes map[string]float64
}

// ladderState is what the depths below the wire need: engine statements
// re-resolved per generation like a server session does, compiled plans
// and parsed ASTs for depth 2, and bare stores for the write classes.
type ladderState struct {
	e       *env
	stmts   []*Stmt
	stmtGen []uint64
	plans   map[string]*Plan
	rels    map[string]*Relation
	arc     map[int]*ARCQuery
	dl      map[int]*Program
	cat     *arcCat
	stores  [3]*Store // bare, +manager no fsync, +manager fsync (durable only)
	mgrs    [3]*Manager
	dirs    [3]string
}

func (ls *ladderState) close() {
	for _, m := range ls.mgrs {
		if m != nil {
			_ = managerClose(m) // scratch directories, removed with the run
		}
	}
}

// diskFootprint checkpoints the no-fsync store, applies a fixed tail of
// single-row commits, closes it and measures the directory. That store's
// whole history is the traced pass, so the byte counts repeat exactly.
func (ls *ladderState) diskFootprint(c *ladderCounts, tail int) error {
	const v = 1
	if err := managerCheckpoint(ls.mgrs[v]); err != nil {
		return err
	}
	var err error
	if c.checkpointBytes, err = dirBytes(ls.dirs[v]); err != nil {
		return err
	}
	for i := 0; i < tail; i++ {
		if err := storeCommit(ls.stores[v], table(0), nil, []Tuple{tuple(tailBase+i, i)}); err != nil {
			return err
		}
	}
	c.liveUserBytes = storeUserBytes(ls.stores[v])
	if err := managerClose(ls.mgrs[v]); err != nil {
		return err
	}
	ls.mgrs[v] = nil
	c.diskBytes, err = dirBytes(ls.dirs[v])
	return err
}

// stmt returns the engine statement of a class, re-prepared when a
// commit moved the store's generation — what a server session's
// resolveHandle does before every Execute and Exec.
func (ls *ladderState) stmt(class int) (*Stmt, error) {
	if gen := dbGeneration(ls.e.db); ls.stmts[class] == nil || ls.stmtGen[class] != gen {
		cl := ls.e.w.classes[class]
		st, err := enginePrepare(ls.e.db, cl.lang, cl.text(0), cl.pred)
		if err != nil {
			return nil, err
		}
		ls.stmts[class], ls.stmtGen[class] = st, gen
	}
	return ls.stmts[class], nil
}

func (e *env) newLadderState(ops []op, scratch string) (*ladderState, error) {
	w := e.w
	ls := &ladderState{e: e, stmts: make([]*Stmt, len(w.classes)), stmtGen: make([]uint64, len(w.classes)),
		plans: map[string]*Plan{}, rels: headRels(e.db), arc: map[int]*ARCQuery{}, dl: map[int]*Program{}}
	compilePlan := func(key, src string) error {
		if ls.plans[key] != nil {
			return nil
		}
		q, err := sqlParse(src)
		if err != nil {
			return err
		}
		p, err := planCompile(q, headRels(e.db))
		ls.plans[key] = p
		return err
	}
	hasWrite := false
	for i, cl := range w.classes {
		var err error
		switch {
		case cl.write:
			hasWrite = true
		case cl.lang == langARC:
			ls.arc[i], err = arcParse(cl.src)
			ls.cat = arcCatalog(e.db)
		case cl.lang == langDatalog:
			ls.dl[i], err = datalogParse(cl.src)
		case cl.kind == opQuery:
			err = compilePlan(cl.src, cl.src)
		}
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", cl.name, err)
		}
	}
	for _, o := range ops {
		if cl := w.classes[o.class]; cl.kind == opAdhoc && !cl.compile {
			if err := compilePlan(o.text, o.text); err != nil {
				return nil, err
			}
		}
	}
	if hasWrite {
		variants := 1
		if w.durable {
			variants = 3
		}
		for v := 0; v < variants; v++ {
			var rels []*Relation
			for _, r := range ls.rels {
				rels = append(rels, relClone(r))
			}
			ls.stores[v] = newStore(rels...)
			if v > 0 {
				dir, err := os.MkdirTemp(scratch, "store-")
				if err != nil {
					return nil, err
				}
				ls.dirs[v] = dir
				if ls.mgrs[v], err = attachManager(dir, v == 2, ls.stores[v]); err != nil {
					return nil, err
				}
			}
		}
	}
	return ls, nil
}

// runLadder replays a fixed prefix of the single-client cycle, each
// group of it at each depth in turn — wire, engine, below — and then runs
// the side probes. Everything is single-client and counted, so the
// counts repeat exactly.
func (e *env) runLadder(tr *tracer, scratch string, quick bool, tail int) (*ladderResult, error) {
	w := e.w
	group := w.group
	if w.ladderGroup > 0 {
		group = w.ladderGroup
	}
	groups := w.ladderGroups
	if quick {
		groups = max(1, groups/20)
	}
	n := groups * group
	ops := make([]op, n)
	for i := range ops {
		ops[i] = e.ladder[i%len(e.ladder)]
	}
	ls, err := e.newLadderState(ops, scratch)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	res := &ladderResult{
		d0: map[string]float64{}, d1: map[string]float64{}, d2: map[string]float64{},
		run:    map[string]float64{},
		commit: map[string]float64{}, commitNoFsync: map[string]float64{}, commitFsync: map[string]float64{},
		codec: map[string]float64{}, langParse: map[string]float64{}, planCompile: map[string]float64{}, prepareHit: map[string]float64{},
		probes: map[string]float64{},
	}
	res.counts.ops = n
	fail := func(cl class, depth string, err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("ladder %s %s: %w", depth, cl.name, err)
		}
	}
	check := func(cl class, depth string, got, want answer, err error) {
		if err == nil && got != want {
			err = fmt.Errorf("wrong answer: got %d rows sum %x, want %d rows sum %x", got.rows, got.sum, want.rows, want.sum)
		}
		if err != nil {
			fail(cl, depth, err)
		}
	}
	ids := make([]int, n)

	// Start every pass from the same statement-cache state, whatever the
	// windows before it left there: push everything out.
	for i := 0; i < 2*stmtCacheSize; i++ {
		if _, err := enginePrepare(e.db, langSQL, fmt.Sprintf("select %d as flush", i), ""); err != nil {
			return nil, err
		}
	}

	// Depth 0: the wire.
	wire := func(i int) {
		o := &ops[i]
		cl := w.classes[o.class]
		t0 := time.Now()
		got, err := e.wireDo(0, o)
		t1 := time.Now()
		check(cl, depthWire, got, o.want, err)
		if err == nil {
			e.acknowledge(0, o)
		}
		ids[i] = tr.add(depthWire+"/"+cl.name, 0, i, t0, t1)
	}

	// Depth 1: the engine API on the same DB.
	engine := func(i int) {
		o := &ops[i]
		cl := w.classes[o.class]
		args := anyArgs(o.args)
		var batch [][]any
		for _, b := range o.batch {
			batch = append(batch, anyArgs(b))
		}
		var rows [][]Value
		var affected int64
		var err error
		t0 := time.Now()
		switch cl.kind {
		case opQuery:
			var st *Stmt
			if st, err = ls.stmt(o.class); err == nil {
				rows, err = engineQuery(st, args)
			}
		case opAdhoc:
			rows, err = engineAdhoc(e.db, cl.lang, o.alt)
		case opExec:
			var st *Stmt
			if st, err = ls.stmt(o.class); err == nil {
				affected, err = engineExec(st, args)
			}
		case opTxBatch:
			affected, err = engineTxBatch(e.db, cl.text(0), batch)
		}
		t1 := time.Now()
		got := answer{rows: int(affected)}
		if !cl.write {
			got = rowsAnswer(rows)
		}
		want := o.want
		if cl.kind == opAdhoc {
			want = o.altWant
		}
		check(cl, depthEngine, got, want, err)
		ids[i] = tr.add(depthEngine+"/"+cl.name, ids[i], i, t0, t1)
	}

	// Depth 2: below the engine.
	below := func(i int) {
		o := &ops[i]
		cl := w.classes[o.class]
		name := depthBelow + "/" + cl.name
		rows := -1
		var err error
		switch {
		case cl.write:
			for v, st := range ls.stores {
				if st == nil {
					continue
				}
				t0 := time.Now()
				err = storeCommit(st, cl.rel(0), o.del, o.ins)
				t1 := time.Now()
				if err != nil {
					break
				}
				sub := [...]string{"relation.commit/", "storage.commit_nofsync/", "storage.commit_fsync/"}[v]
				tr.add(sub+cl.name, ids[i], i, t0, t1)
				if v == 0 && !w.durable || v == 2 {
					tr.add(name, ids[i], i, t0, t1)
				}
				if v == 2 {
					res.counts.walUserBytes += 16 * int64(len(o.ins))
				}
			}
		case cl.compile:
			t0 := time.Now()
			var q SQLQuery
			var p *Plan
			if q, err = sqlParse(o.text); err != nil {
				break
			}
			t1 := time.Now()
			if p, err = planCompile(q, headRels(e.db)); err != nil {
				break
			}
			t2 := time.Now()
			rows, err = planDrain(p, nil)
			t3 := time.Now()
			id := tr.add(name, ids[i], i, t0, t3)
			tr.add("sql.parse/"+cl.name, id, i, t0, t1)
			tr.add("plan.compile/"+cl.name, id, i, t1, t2)
			tr.add("exec.run/"+cl.name, id, i, t2, t3)
		default:
			t0 := time.Now()
			switch {
			case cl.lang == langARC:
				rows, err = arcEval(ls.arc[o.class], ls.cat)
			case cl.lang == langDatalog:
				rows, err = datalogEval(ls.dl[o.class], ls.rels, cl.pred)
			case cl.kind == opAdhoc:
				rows, err = planDrain(ls.plans[o.text], nil)
			default:
				rows, err = planDrain(ls.plans[cl.src], o.args)
			}
			tr.add(name, ids[i], i, t0, time.Now())
		}
		if err == nil && rows >= 0 && rows != o.want.rows {
			err = fmt.Errorf("wrong answer: got %d rows, want %d", rows, o.want.rows)
		}
		if err != nil {
			fail(cl, depthBelow, err)
		}
	}

	// One group at a time through all three depths, so that the depths
	// of an op run within milliseconds of each other and a drift in the
	// machine's speed does not pass for a layer's time.
	var walBefore [2]uint64
	if m := ls.mgrs[2]; m != nil {
		walBefore[0], walBefore[1] = managerWAL(m)
	}
	for g := 0; g < n; g += group {
		before := e.counters()
		for i := g; i < g+group; i++ {
			wire(i)
		}
		after := e.counters()
		res.counts.frames += after.wire.frames - before.wire.frames
		res.counts.rows += after.wire.rows - before.wire.rows
		res.counts.fetchBatches += after.wire.fetchBatches - before.wire.fetchBatches
		for i := g; i < g+group; i++ {
			engine(i)
		}
		for i := g; i < g+group; i++ {
			below(i)
		}
	}
	if m := ls.mgrs[2]; m != nil {
		rec, byt := managerWAL(m)
		res.counts.walCommits, res.counts.walBytes = rec-walBefore[0], byt-walBefore[1]
		if err := ls.diskFootprint(&res.counts, tail); err != nil {
			return nil, fmt.Errorf("ladder disk footprint: %w", err)
		}
	}

	// Fixpoint rounds, as the engine's own operator trace reports them.
	for i, cl := range w.classes {
		if cl.write || cl.kind != opQuery {
			continue
		}
		st, err := ls.stmt(i)
		if err != nil {
			return nil, err
		}
		var args []any
		for _, o := range ops {
			if o.class == i {
				args = anyArgs(o.args)
				break
			}
		}
		rounds, delta, err := fixpointCounts(st, args)
		if err != nil {
			return nil, fmt.Errorf("ladder traced %s: %w", cl.name, err)
		}
		if rounds > 0 {
			res.counts.fixpointQueries++
			res.counts.fixpointRounds += rounds
			res.counts.deltaRows += delta
		}
	}

	for _, cl := range w.classes {
		res.d0[cl.name], _ = tr.p50(depthWire + "/" + cl.name)
		res.d1[cl.name], _ = tr.p50(depthEngine + "/" + cl.name)
		res.d2[cl.name], _ = tr.p50(depthBelow + "/" + cl.name)
		if cl.compile {
			res.run[cl.name], _ = tr.p50("exec.run/" + cl.name)
		}
		if cl.write {
			res.commit[cl.name], _ = tr.p50("relation.commit/" + cl.name)
			if w.durable {
				res.commitNoFsync[cl.name], _ = tr.p50("storage.commit_nofsync/" + cl.name)
				res.commitFsync[cl.name], _ = tr.p50("storage.commit_fsync/" + cl.name)
			}
		}
	}
	if err := e.sideProbes(tr, ls, ops, res, quick); err != nil {
		return nil, err
	}
	return res, nil
}

// timeN records reps spans around f and returns their p50 in µs.
func (tr *tracer) timeN(name string, reps int, f func(i int) error) (float64, error) {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := f(i)
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		tr.add(name, 0, i, t0, t1)
	}
	v, _ := tr.p50(name)
	return v, nil
}

// sideProbes time single calls that are not a depth of the ladder:
// parsers, the planner, the statement cache both ways, the wire codec
// alone, and the relation's index and clone paths.
func (e *env) sideProbes(tr *tracer, ls *ladderState, ops []op, res *ladderResult, quick bool) error {
	w := e.w
	reps := 200
	if quick {
		reps = 10
	}
	first := map[int]*op{}
	for i := range ops {
		if first[ops[i].class] == nil {
			first[ops[i].class] = &ops[i]
		}
	}
	var buf bytes.Buffer
	var err error
	for i, cl := range w.classes {
		o := first[i]
		if o == nil {
			continue
		}
		src := cl.text(0)
		if cl.kind == opAdhoc {
			src = o.text
		}
		// Parser and planner on the class's own text.
		if !cl.write {
			res.langParse[cl.name], err = tr.timeN("parse/"+cl.name, reps, func(int) error {
				var err error
				switch cl.lang {
				case langARC:
					_, err = arcParse(src)
				case langDatalog:
					_, err = datalogParse(src)
				default:
					_, err = sqlParse(src)
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		if cl.lang == langSQL && !cl.write {
			q, err := sqlParse(src)
			if err != nil {
				return err
			}
			res.planCompile[cl.name], err = tr.timeN("plan.compile.probe/"+cl.name, reps, func(int) error {
				_, err := planCompile(q, headRels(e.db))
				return err
			})
			if err != nil {
				return err
			}
		}
		// Statement cache hit: the text was prepared a moment ago.
		if cl.kind != opAdhoc || !cl.compile {
			res.prepareHit[cl.name], err = tr.timeN("engine.prepare_hit/"+cl.name, reps+1, func(int) error {
				_, err := enginePrepare(e.db, cl.lang, src, cl.pred)
				return err
			})
			if err != nil {
				return err
			}
		}
		// The codec alone, on this op's request and the reply it gets.
		var reply [][]Value
		switch cl.kind {
		case opQuery:
			reply, err = wireQueryAll(e.stmts[0][i], o.args)
		case opAdhoc:
			reply, err = wireAdhoc(e.conns[0], cl.lang, o.text)
		}
		if err != nil {
			return err
		}
		cop := codecOp{args: o.args, reply: reply, exec: cl.kind == opExec, batch: o.batch}
		if cl.kind == opAdhoc {
			cop.adhocSrc = o.text
		}
		codecReps := reps
		if len(reply) > 1000 {
			codecReps = max(5, reps/10)
		}
		res.codec[cl.name], err = tr.timeN("server.codec/"+cl.name, codecReps, func(int) error { return codecRoundTrip(&buf, cop) })
		if err != nil {
			return err
		}
	}
	// Statement cache miss: texts of compile-per-op classes beyond the
	// replayed prefix, never sent before.
	var fresh []string
	for i := len(ops); i < len(e.ladder) && len(fresh) < reps; i++ {
		if o := e.ladder[i]; w.classes[o.class].compile {
			fresh = append(fresh, o.alt)
		}
	}
	if len(fresh) > 0 {
		res.probes["engine.prepare_miss_us"], err = tr.timeN("engine.prepare_miss", len(fresh), func(i int) error {
			_, err := enginePrepare(e.db, langSQL, fresh[i], "")
			return err
		})
		if err != nil {
			return err
		}
	}

	// The relation's own paths on the workload's main table.
	rel := dbRelation(e.db, w.mainRel)
	card := relCard(rel)
	res.probes["relation.probe_us"], _ = tr.timeN("relation.probe", reps*5, func(i int) error {
		relProbe(rel, intVal(i*7919%card))
		return nil
	})
	if card >= 1000 {
		res.probes["relation.range_probe_us"], _ = tr.timeN("relation.range_probe", reps, func(i int) error {
			lo := i * 7919 % (card - 100)
			relRangeProbe(rel, intVal(lo), intVal(lo+100))
			return nil
		})
	}
	cloneReps := max(5, min(reps, 200_000/card))
	if quick {
		cloneReps = 1
	}
	res.probes["relation.clone_us"], _ = tr.timeN("relation.clone", cloneReps, func(int) error { relClone(rel); return nil })
	for i := 0; i < cloneReps; i++ {
		c := relClone(rel)
		t0 := time.Now()
		relProbe(c, intVal(i))
		tr.add("relation.index_build", 0, i, t0, time.Now())
	}
	res.probes["relation.index_build_us"], _ = tr.p50("relation.index_build")
	return nil
}
