package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one set-up instance of a workload: the engine, the in-process
// server on its loopback listener, the client connections with their
// prepared statements, and the op scripts with their expected answers.
type env struct {
	w     *workload
	db    *DB
	srv   *wireServer
	dir   string // durable workloads: the storage directory
	conns []*Conn
	stmts [][]*WireStmt // [client][class]

	scripts [nClients][]op
	ladder  []op
	pos     [nClients]int // script position of each client, kept across windows
	lpos    int           // position in the ladder cycle (single-client windows)
	ops     [nClients]int // ops each client has issued (checkpoint trigger)
	// model is what the durable tables must hold given every
	// acknowledged commit: key -> B per client table.
	model [nClients]map[int64]int64
}

// setup brings a workload to the point where the first request can be
// sent: generate the data, open the engine (bootstrapping the storage
// directory for durable workloads), listen, dial, prepare. Its wall time
// is setup_s.
func setup(w *workload, seed int64, scratch string) (*env, error) {
	e := &env{w: w}
	rels := w.data(rand.New(rand.NewSource(seed)))
	if w.durable {
		dir, err := os.MkdirTemp(scratch, "db-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		if e.db, err = openDurable(dir, rels...); err != nil {
			return nil, err
		}
	} else {
		e.db = openMem(w.setLogic, rels...)
	}
	var err error
	if e.srv, err = serve(e.db); err != nil {
		return nil, err
	}
	for c := 0; c < nClients; c++ {
		conn, err := dial(e.srv.addr)
		if err != nil {
			return nil, err
		}
		e.conns = append(e.conns, conn)
		var stmts []*WireStmt
		for _, cl := range w.classes {
			st, err := wirePrepare(conn, cl.lang, cl.text(c), cl.pred)
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", cl.name, err)
			}
			stmts = append(stmts, st)
		}
		e.stmts = append(e.stmts, stmts)
	}
	return e, nil
}

// close stops the server, closes the connections and the engine and
// removes the storage directory. Closing twice is harmless.
func (e *env) close() error {
	for _, c := range e.conns {
		wireClose(c)
	}
	var err error
	if e.srv != nil {
		err = e.srv.stop()
	}
	if e.db != nil {
		if cerr := dbClose(e.db); err == nil {
			err = cerr
		}
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	e.conns, e.srv, e.db, e.dir = nil, nil, nil, ""
	return err
}

// prepareScripts derives the op scripts from the seed and fills in every
// op's expected answer by running it in process — the oracle. Queries of
// one three_lang shape must agree as bags across the three languages.
func (e *env) prepareScripts(seed int64) error {
	w := e.w
	e.scripts, e.ladder = w.script(rand.New(rand.NewSource(seed^0x5eed)), w)
	if e.ladder == nil {
		e.ladder = e.scripts[0]
	}
	stmts := make([]*Stmt, len(w.classes))
	shapes := map[string]*Relation{}
	memo := map[string]answer{}
	for i, cl := range w.classes {
		if cl.write {
			continue
		}
		st, err := enginePrepare(e.db, cl.lang, cl.src, cl.pred)
		if err != nil {
			return fmt.Errorf("oracle prepare %s: %w", cl.name, err)
		}
		stmts[i] = st
		if cl.shape == "" {
			continue
		}
		rel, err := engineQueryAll(st, nil)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", cl.name, err)
		}
		if first, ok := shapes[cl.shape]; !ok {
			shapes[cl.shape] = rel
		} else if !equalBag(first, rel) {
			return fmt.Errorf("oracle: %s disagrees with the other languages on shape %q", cl.name, cl.shape)
		}
	}
	fill := func(script []op) error {
		for i := range script {
			o := &script[i]
			if w.classes[o.class].write {
				o.want = answer{rows: max(len(o.del), len(o.ins))}
				continue
			}
			key := fmt.Sprint(o.class, o.args)
			a, ok := memo[key]
			if !ok {
				rel, err := engineQueryAll(stmts[o.class], anyArgs(o.args))
				if err != nil {
					return fmt.Errorf("oracle %s: %w", w.classes[o.class].name, err)
				}
				a = relAnswer(rel)
				memo[key] = a
			}
			o.want, o.altWant = a, a
			if o.alt != o.text {
				rows, err := engineAdhoc(e.db, w.classes[o.class].lang, o.alt)
				if err != nil {
					return fmt.Errorf("oracle %s: %w", w.classes[o.class].name, err)
				}
				o.altWant = rowsAnswer(rows)
			}
		}
		return nil
	}
	for c := range e.scripts {
		if err := fill(e.scripts[c]); err != nil {
			return err
		}
	}
	if err := fill(e.ladder); err != nil {
		return err
	}
	if w.durable {
		for c := range e.model {
			e.model[c] = map[int64]int64{}
			eachPair(dbRelation(e.db, table(c)), func(a, b int64) { e.model[c][a] = b })
		}
	}
	return nil
}

func anyArgs(args []Value) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
	}
	return out
}

// wireDo sends one op through client c's connection (depth 0) and
// returns what came back, folded into the oracle's form.
func (e *env) wireDo(c int, o *op) (answer, error) {
	cl := &e.w.classes[o.class]
	switch cl.kind {
	case opQuery:
		rows, err := wireQueryAll(e.stmts[c][o.class], o.args)
		return rowsAnswer(rows), err
	case opAdhoc:
		rows, err := wireAdhoc(e.conns[c], cl.lang, o.text)
		return rowsAnswer(rows), err
	case opExec:
		n, err := wireExec(e.stmts[c][o.class], o.args)
		return answer{rows: int(n)}, err
	default: // opTxBatch
		if err := wireBegin(e.conns[c]); err != nil {
			return answer{}, err
		}
		var total int64
		for _, args := range o.batch {
			n, err := wireExec(e.stmts[c][o.class], args)
			if err != nil {
				return answer{}, err
			}
			total += n
		}
		return answer{rows: int(total)}, wireCommit(e.conns[c])
	}
}

// acknowledge records an acknowledged write in the durability model.
func (e *env) acknowledge(c int, o *op) {
	if e.model[c] == nil {
		return
	}
	for _, t := range o.del {
		delete(e.model[c], pairOf(t)[0])
	}
	for _, t := range o.ins {
		p := pairOf(t)
		e.model[c][p[0]] = p[1]
	}
}

// sample is one completed op of a window.
type sample struct {
	end    int64 // ns after the start of the measured window
	lat    int64 // ns
	client uint8
	class  uint8 // len(classes) = the checkpoint pseudo-class
	failed bool
}

// window is the raw record of one measured run.
type window struct {
	w        *workload
	slice    time.Duration
	slices   int
	samples  []sample
	cpu      []time.Duration // process user+sys at each slice boundary
	alloc    []uint64        // runtime TotalAlloc at each slice boundary
	firstErr error
	before   counters
	after    counters
	// Ops that completed outside the measured slices (warm-up, and the
	// rest of a group after the deadline): timed by nobody, checked all
	// the same.
	outside, outsideFailed int
}

// counters are the program's own counts read around a window.
type counters struct {
	eng  engineCounters
	wire wireCounters
}

func (e *env) counters() counters { return counters{eng: dbCounters(e.db), wire: e.srv.counters()} }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives the workload closed-loop: `clients` connections (two, or
// one running the ladder cycle), each sending its next op only when the
// reply to the last has been checked. After warm-up it measures
// slices×slice; process CPU and allocation totals are read at every
// slice boundary. Clients stop on the first group boundary after the
// deadline, so the data is left as the cycle found it.
func (e *env) run(clients int, warm, slice time.Duration, slices int) *window {
	win := &window{w: e.w, slice: slice, slices: slices}
	start := time.Now().Add(warm)
	deadline := start.Add(time.Duration(slices) * slice)
	per := make([][]sample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			script, group, pos := e.scripts[c], e.w.group, &e.pos[c]
			if clients == 1 {
				script, pos = e.ladder, &e.lpos
				if e.w.ladderGroup > 0 {
					group = e.w.ladderGroup
				}
			}
			out := make([]sample, 0, 1<<16)
			for {
				if *pos%group == 0 {
					if !time.Now().Before(deadline) {
						break
					}
					if c == 0 && e.w.ckptEvery > 0 && e.ops[0] >= e.w.ckptEvery {
						e.ops[0] = 0
						t0 := time.Now()
						err := dbCheckpoint(e.db)
						t1 := time.Now()
						out = append(out, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)),
							class: uint8(len(e.w.classes)), failed: err != nil})
						if err != nil && errs[c] == nil {
							errs[c] = err
						}
					}
				}
				o := &script[*pos]
				t0 := time.Now()
				got, err := e.wireDo(c, o)
				t1 := time.Now()
				bad := err != nil || got != o.want
				if bad && errs[c] == nil {
					if err == nil {
						err = fmt.Errorf("wrong answer: got %d rows sum %x, want %d rows sum %x", got.rows, got.sum, o.want.rows, o.want.sum)
					}
					errs[c] = fmt.Errorf("client %d %s: %w", c, e.w.classes[o.class].name, err)
				}
				if !bad {
					e.acknowledge(c, o)
				}
				out = append(out, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)),
					client: uint8(c), class: uint8(o.class), failed: bad})
				e.ops[c]++
				*pos = (*pos + 1) % len(script)
			}
			per[c] = out
		}(c)
	}
	for k := 0; k <= slices; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
		if k == 0 {
			win.before = e.counters()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		win.cpu = append(win.cpu, cpuTime())
		win.alloc = append(win.alloc, ms.TotalAlloc)
	}
	win.after = e.counters()
	wg.Wait()
	end := int64(time.Duration(slices) * slice)
	for c := range per {
		for _, s := range per[c] {
			switch {
			case s.end >= 0 && s.end < end:
				win.samples = append(win.samples, s)
			case int(s.class) < len(e.w.classes):
				win.outside++
				if s.failed {
					win.outsideFailed++
				}
			}
		}
		if win.firstErr == nil {
			win.firstErr = errs[c]
		}
	}
	return win
}

// sliceStats are the end-to-end numbers of one slice.
type sliceStats struct {
	ops                  int
	throughput           float64 // ops/s
	p50, p95, slowest    float64 // µs; slowest is the largest per-class p50
	cpuPerOp, allocPerOp float64 // µs of process CPU and KB allocated per op
}

// summary is a window reduced to reported values: every end-to-end
// number is computed per slice and the median slice is taken.
type summary struct {
	attempted, failed int
	sliceStats                // medians over slices; ops = total
	spreadPct         float64 // (max−min)/median of slice throughput
	p99, max          float64 // µs, whole window
	classP50          map[string]float64
	classShare        map[string]float64 // fraction of ops
	classN            map[string]int
	ckptP50           float64 // µs, 0 when no checkpoint ran
	ckptN             int
	ckptStall         float64 // µs: slowest op of another client overlapping a checkpoint
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func (win *window) summarize() summary {
	w := win.w
	ck := uint8(len(w.classes))
	sum := summary{attempted: win.outside, failed: win.outsideFailed,
		classP50: map[string]float64{}, classShare: map[string]float64{}, classN: map[string]int{}}
	bySlice := make([][]sample, win.slices)
	byClass := make([][]float64, len(w.classes))
	var all, ckpt []float64
	var ckptSpans [][2]int64
	for _, s := range win.samples {
		if s.class == ck {
			ckpt = append(ckpt, us(s.lat))
			ckptSpans = append(ckptSpans, [2]int64{s.end - s.lat, s.end})
			continue
		}
		sum.attempted++
		if s.failed {
			sum.failed++
			continue
		}
		k := int(s.end / int64(win.slice))
		bySlice[k] = append(bySlice[k], s)
		byClass[s.class] = append(byClass[s.class], us(s.lat))
		all = append(all, us(s.lat))
	}
	for _, s := range win.samples {
		if s.class == ck || s.client == 0 {
			continue
		}
		for _, sp := range ckptSpans {
			if s.end > sp[0] && s.end-s.lat < sp[1] {
				sum.ckptStall = max(sum.ckptStall, us(s.lat))
			}
		}
	}
	var thr, p50, p95, slow, cpu, alloc []float64
	for k, ss := range bySlice {
		if len(ss) == 0 {
			continue
		}
		lats := make([]float64, len(ss))
		cls := make([][]float64, len(w.classes))
		for i, s := range ss {
			lats[i] = us(s.lat)
			cls[s.class] = append(cls[s.class], us(s.lat))
		}
		n := float64(len(ss))
		thr = append(thr, n/win.slice.Seconds())
		p50 = append(p50, percentile(lats, 50))
		p95 = append(p95, percentile(lats, 95))
		worst := 0.0
		for _, c := range cls {
			worst = max(worst, percentile(c, 50))
		}
		slow = append(slow, worst)
		cpu = append(cpu, us(int64(win.cpu[k+1]-win.cpu[k]))/n)
		alloc = append(alloc, float64(win.alloc[k+1]-win.alloc[k])/1024/n)
	}
	sum.sliceStats = sliceStats{
		ops: len(all), throughput: median(thr), p50: median(p50), p95: median(p95),
		slowest: median(slow), cpuPerOp: median(cpu), allocPerOp: median(alloc),
	}
	sum.spreadPct = spreadPct(thr)
	sum.p99, sum.max = percentile(all, 99), percentile(all, 100)
	for i, c := range w.classes {
		if len(byClass[i]) == 0 {
			continue
		}
		sum.classN[c.name] = len(byClass[i])
		sum.classP50[c.name] = percentile(byClass[i], 50)
		sum.classShare[c.name] = float64(len(byClass[i])) / float64(len(all))
	}
	sum.ckptN, sum.ckptP50 = len(ckpt), percentile(ckpt, 50)
	return sum
}

// liveHeapMB is the heap still reachable after a collection: the data,
// indexes and caches the program holds at the end of the window (plus
// the harness's scripts, the same on both sides of a comparison).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
