package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation: a workload, a seed, how long to measure and
// which half to report.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool   // false: end-to-end metrics, no spans; true: per-layer metrics and the traced ladder
	quick    bool   // smoke test: 200 ms slices, 1/20 of the ladder's op counts
	out      string // directory for trace files and scratch storage directories
	// corruptOracle flips one expected checksum — the negative test that
	// shows a wrong answer fails the run.
	corruptOracle bool
}

// measured is one reported value with its sample count.
type measured struct {
	value float64
	n     int
}

// report is what a run hands back: every metric that applies to the
// workload (one that does not apply is absent, not zero) and the op
// tally. A failed op is one that errored, was refused or answered wrong.
type report struct {
	workload          string
	attempted, failed int
	firstErr          error
	metrics           map[string]measured
	notes             []string
}

func (r *report) set(name string, v float64, n int) { r.metrics[name] = measured{v, n} }

func (r *report) tally(attempted, failed int, err error) {
	r.attempted += attempted
	r.failed += failed
	if r.firstErr == nil {
		r.firstErr = err
	}
}

const (
	// setup_s is the median of up to setupRuns set-ups, fewer when they
	// have taken setupBudget together.
	setupRuns   = 25
	setupBudget = 1500 * time.Millisecond
	tailOps     = 1000      // commits of the fixed tail the durability epilogue replays
	tailBase    = 1_000_000 // first key of the tail's rows
	e2eSlices   = 6
	fullWarmup  = time.Second
)

// phases are the durations one run is cut into.
type phases struct {
	warm, slice time.Duration
	slices      int
	single      time.Duration // length of the single-client untraced window
	tail        int
}

func (c config) phases() phases {
	if c.quick {
		ph := phases{warm: 50 * time.Millisecond, slice: 200 * time.Millisecond, slices: 3, single: 100 * time.Millisecond, tail: 50}
		if c.trace {
			ph.slices = 1
		}
		return ph
	}
	total := time.Duration(c.seconds) * time.Second
	if c.trace {
		// Half the time on the two-client window, a quarter on the
		// single-client one; the ladder's cost is fixed by its op counts.
		return phases{warm: fullWarmup, slice: total / 2 / 3, slices: 3, single: total / 4, tail: tailOps}
	}
	return phases{warm: fullWarmup, slice: total / e2eSlices, slices: e2eSlices, tail: tailOps}
}

// runWorkload runs one workload once and reports either its end-to-end
// or its per-layer metrics.
func runWorkload(cfg config) (*report, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	scratch := filepath.Join(cfg.out, fmt.Sprintf("scratch-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	rep := &report{workload: w.name, metrics: map[string]measured{}}
	ph := cfg.phases()

	t0 := time.Now()
	e, err := setup(w, cfg.seed, scratch)
	setups := []float64{time.Since(t0).Seconds()}
	if err != nil {
		if e != nil {
			_ = e.close() // the set-up error is the one reported
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { _ = e.close() }() // a second close after the explicit one below is a no-op
	if err := e.prepareScripts(cfg.seed); err != nil {
		return nil, err
	}
	if cfg.corruptOracle {
		e.scripts[0][0].want.sum ^= 1
	}

	win := e.run(nClients, ph.warm, ph.slice, ph.slices)
	sum := win.summarize()
	rep.tally(sum.attempted, sum.failed, win.firstErr)
	if !cfg.trace {
		rep.set("throughput_ops_s", sum.throughput, sum.ops)
		rep.set("latency_p50_us", sum.p50, sum.ops)
		rep.set("alloc_kb_per_op", sum.allocPerOp, sum.ops)
		win.samples = nil // the harness's own record is not the program's memory
		rep.set("live_heap_mb", liveHeapMB(), 1)
		rep.notes = append(rep.notes, fmt.Sprintf("slice spread %.1f%% over %d slices of %v", sum.spreadPct, ph.slices, ph.slice))
	} else {
		rep.set("client.peak_rss_mb", peakRSSMB(), 1)
		tr := &tracer{t0: time.Now()}
		if err := e.perLayer(rep, tr, cfg, ph, win, sum, scratch); err != nil {
			return nil, err
		}
		defer func() {
			if ferr := tr.flush(filepath.Join(cfg.out, "trace-"+w.name+".jsonl")); ferr != nil && rep.firstErr == nil {
				rep.firstErr = ferr
			}
		}()
	}
	if w.durable {
		if err := e.durabilityEpilogue(rep, cfg, ph.tail); err != nil {
			return nil, err
		}
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	if !cfg.trace {
		// Set-up again, several times, after the memory reading so the
		// extra instances do not count towards it.
		for began := time.Now(); len(setups) < setupRuns && !cfg.quick && time.Since(began) < setupBudget; {
			t0 := time.Now()
			extra, err := setup(w, cfg.seed, scratch)
			setups = append(setups, time.Since(t0).Seconds())
			if extra != nil {
				if cerr := extra.close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", len(setups), err)
			}
		}
		rep.set("setup_s", median(setups), len(setups))
	}
	return rep, nil
}

// perLayer fills in the layer metrics: the program's own counters over
// the two-client window, a single-client untraced window, then the
// traced ladder and side probes.
func (e *env) perLayer(rep *report, tr *tracer, cfg config, ph phases, win *window, sum summary, scratch string) error {
	w := e.w
	rep.set("client.ops", float64(sum.ops), sum.ops)
	rep.set("client.error_rate", float64(sum.failed)/float64(max(1, sum.attempted)), sum.attempted)
	rep.set("client.slowest_class_p50_us", sum.slowest, sum.ops)
	rep.set("client.cpu_us_per_op", sum.cpuPerOp, sum.ops)
	rep.set("client.latency_p95_us", sum.p95, sum.ops)
	rep.set("client.latency_p99_us", sum.p99, sum.ops)
	rep.set("client.latency_max_us", sum.max, sum.ops)
	rep.set("client.slice_spread_pct", sum.spreadPct, ph.slices)
	var reads, writes []float64
	for _, s := range win.samples {
		if int(s.class) < len(w.classes) && !s.failed {
			if w.classes[s.class].write {
				writes = append(writes, us(s.lat))
			} else {
				reads = append(reads, us(s.lat))
			}
		}
	}
	if len(reads) > 0 && len(writes) > 0 {
		rep.set("client.read_p50_us", percentile(reads, 50), len(reads))
		rep.set("client.write_p50_us", percentile(writes, 50), len(writes))
	}
	for name, v := range sum.classP50 {
		rep.set("client."+name+".p50_us", v, sum.classN[name])
		rep.set("client."+name+".share_pct", sum.classShare[name]*100, sum.classN[name])
	}
	if sum.ckptN > 0 {
		rep.set("storage.checkpoint_us", sum.ckptP50, sum.ckptN)
		rep.set("storage.checkpoint_stall_us", sum.ckptStall, sum.ckptN)
	}
	d := func(a, b uint64) float64 { return float64(b - a) }
	be, af := win.before.eng, win.after.eng
	// The counter window is the whole measured window; ops counts the
	// same window.
	if prepares := d(be.prepares, af.prepares); prepares > 0 {
		rep.set("engine.prepares_per_op", prepares/float64(sum.ops), sum.ops)
		rep.set("engine.stmt_cache_hit_rate", d(be.cacheHits, af.cacheHits)/prepares, int(prepares))
	}
	if commits := d(be.storeCommits, af.storeCommits); commits > 0 {
		conflicts := d(be.storeConflict, af.storeConflict)
		rep.set("engine.conflict_retries_per_commit", d(be.conflictRetries, af.conflictRetries)/commits, int(commits))
		rep.set("relation.conflict_rate", conflicts/(commits+conflicts), int(commits+conflicts))
	}

	single := e.run(1, ph.warm/2, ph.single, 1)
	ssum := single.summarize()
	rep.tally(ssum.attempted, ssum.failed, single.firstErr)
	if w.ladderGroup == 0 || len(e.ladder) == len(e.scripts[0]) { // same cycle on both sides of the ratio
		rep.set("server.scaling_ratio", sum.throughput/ssum.throughput, sum.ops+ssum.ops)
	}

	lad, err := e.runLadder(tr, scratch, cfg.quick, ph.tail)
	if err != nil {
		return err
	}
	rep.tally(3*lad.counts.ops, lad.failed, lad.firstErr)

	// Class values become workload values as op-mix-weighted means, the
	// mix being the one the two-client window ran. A layer only some
	// classes reach is averaged over those classes.
	mix := sum.classShare
	put := func(name string, vals map[string]float64) {
		if v, ok := weighted(vals, mix); ok {
			rep.set(name, v, lad.counts.ops)
		}
	}
	sub := func(a, b map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for k, v := range a {
			if bv, ok := b[k]; ok {
				out[k] = v - bv
			}
		}
		return out
	}
	pick := func(vals map[string]float64, keep func(class) bool) map[string]float64 {
		out := map[string]float64{}
		for _, cl := range w.classes {
			if v, ok := vals[cl.name]; ok && keep(cl) {
				out[cl.name] = v
			}
		}
		return out
	}
	put("client.single_p50_us", ssum.classP50)
	put("client.traced_p50_us", lad.d0)
	if tv, ok := weighted(lad.d0, mix); ok {
		if sv, ok := weighted(ssum.classP50, mix); ok && sv > 0 {
			rep.set("client.trace_overhead_pct", (tv-sv)/sv*100, lad.counts.ops)
		}
	}
	serverSelf, engineSelf := map[string]float64{}, map[string]float64{}
	for name := range lad.d0 {
		self := ladderSelf([]float64{lad.d0[name], lad.d1[name], lad.d2[name]})
		serverSelf[name], engineSelf[name] = self[0], self[1]
	}
	put("server.self_us", serverSelf)
	put("server.codec_us", lad.codec)
	put("server.residual_us", sub(serverSelf, lad.codec))
	put("engine.self_us", engineSelf)
	put("ladder.below_us", lad.d2)
	n := float64(lad.counts.ops)
	rep.set("server.frames_per_op", float64(lad.counts.frames)/n, lad.counts.ops)
	if lad.counts.rows > 0 {
		rep.set("server.rows_per_op", float64(lad.counts.rows)/n, lad.counts.ops)
		rep.set("server.fetch_batches_per_op", float64(lad.counts.fetchBatches)/n, lad.counts.ops)
	}

	isSQLRead := func(cl class) bool { return cl.lang == langSQL && !cl.write }
	execRun := pick(lad.d2, func(cl class) bool { return isSQLRead(cl) && !cl.compile })
	for k, v := range lad.run {
		execRun[k] = v
	}
	put("exec.run_us", execRun)
	put("eval.run_us", pick(lad.d2, func(cl class) bool { return cl.lang == langARC }))
	put("datalog.run_us", pick(lad.d2, func(cl class) bool { return cl.lang == langDatalog }))
	put("sql.parse_us", pick(lad.langParse, isSQLRead))
	put("arc.parse_us", pick(lad.langParse, func(cl class) bool { return cl.lang == langARC }))
	put("datalog.parse_us", pick(lad.langParse, func(cl class) bool { return cl.lang == langDatalog }))
	put("plan.compile_us", lad.planCompile)
	put("engine.prepare_hit_us", lad.prepareHit)
	if q := lad.counts.fixpointQueries; q > 0 {
		rep.set("fixpoint.rounds_per_query", float64(lad.counts.fixpointRounds)/float64(q), q)
		rep.set("fixpoint.delta_rows_per_query", float64(lad.counts.deltaRows)/float64(q), q)
	}
	for name, v := range lad.probes {
		rep.set(name, v, lad.counts.ops)
	}
	put("relation.commit_us", lad.commit)
	if w.durable {
		put("storage.wal_append_us", sub(lad.commitNoFsync, lad.commit))
		put("storage.fsync_us", sub(lad.commitFsync, lad.commitNoFsync))
		if c := lad.counts; c.walCommits > 0 {
			rep.set("storage.wal_bytes_per_commit", float64(c.walBytes)/float64(c.walCommits), int(c.walCommits))
			rep.set("storage.wal_bytes_per_user_byte", float64(c.walBytes)/float64(c.walUserBytes), int(c.walCommits))
			rep.set("storage.checkpoint_bytes", float64(c.checkpointBytes), 1)
			rep.set("storage.disk_bytes_per_user_byte", float64(c.diskBytes)/float64(c.liveUserBytes), ph.tail)
		}
	}

	// Per-class ladder detail goes to the notes (and the trace file
	// holds every span).
	names := make([]string, 0, len(lad.d0))
	for k := range lad.d0 {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		rep.notes = append(rep.notes, fmt.Sprintf("ladder %-18s wire %9.1f  engine %9.1f  below %9.1f us   codec %7.1f", k, lad.d0[k], lad.d1[k], lad.d2[k], lad.codec[k]))
	}
	return nil
}

// durabilityEpilogue checkpoints, applies a fixed tail of acknowledged
// commits, closes, and reopens from the directory alone. Every row the
// harness saw acknowledged must be there and recovery must replay
// exactly the tail; each miss is a failed op.
func (e *env) durabilityEpilogue(rep *report, cfg config, tail int) error {
	if err := dbCheckpoint(e.db); err != nil {
		return fmt.Errorf("epilogue checkpoint: %w", err)
	}
	insert := e.w.classIndex("insert_auto")
	for i := 0; i < tail; i++ {
		o := op{class: insert, args: vals(tailBase+i, i), ins: []Tuple{tuple(tailBase+i, i)}, want: answer{rows: 1}}
		got, err := e.wireDo(0, &o)
		if err != nil || got != o.want {
			rep.tally(1, 1, fmt.Errorf("epilogue tail commit %d: rows %d, err %v", i, got.rows, err))
			continue
		}
		rep.tally(1, 0, nil)
		e.acknowledge(0, &o)
	}
	for _, c := range e.conns {
		wireClose(c)
	}
	e.conns = nil
	if err := e.srv.stop(); err != nil {
		return err
	}
	e.srv = nil
	if err := dbClose(e.db); err != nil {
		return err
	}
	e.db = nil

	t0 := time.Now()
	db, err := openDurable(e.dir)
	recovery := time.Since(t0)
	if err != nil {
		return fmt.Errorf("epilogue reopen: %w", err)
	}
	e.db = db // closed with the env
	records, dur := dbRecovery(db)
	if records != uint64(tail) {
		rep.tally(1, 1, fmt.Errorf("epilogue: recovery replayed %d records, want %d", records, tail))
	}
	for c := range e.model {
		seen := 0
		eachPair(dbRelation(db, table(c)), func(a, b int64) {
			seen++
			if want, ok := e.model[c][a]; !ok || want != b {
				rep.tally(0, 1, fmt.Errorf("epilogue: %s holds (%d,%d), which was never acknowledged", table(c), a, b))
			}
		})
		rep.tally(len(e.model[c]), 0, nil)
		if seen != len(e.model[c]) {
			rep.tally(0, len(e.model[c])-min(seen, len(e.model[c])), fmt.Errorf("epilogue: %s holds %d rows after recovery, %d were acknowledged", table(c), seen, len(e.model[c])))
		}
	}
	if cfg.trace {
		rep.set("storage.recovery_s", recovery.Seconds(), 1)
		if records > 0 {
			rep.set("storage.recovery_us_per_record", us(int64(dur))/float64(records), int(records))
		}
		c := dbCounters(db)
		rate := 0.0
		if c.cacheLookups > 0 {
			rate = float64(c.blockHits) / float64(c.cacheLookups)
		}
		rep.set("storage.block_cache_hit_rate", rate, int(c.cacheLookups))
		rep.notes = append(rep.notes, fmt.Sprintf("block cache: %d hits / %d lookups during recovery", c.blockHits, c.cacheLookups))
	}
	return nil
}
