package main

import (
	"bufio"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {95, 5}, {100, 5}, {20, 1}, {21, 2}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianSliceAndSpread(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := spreadPct([]float64{90, 100, 110}); got != 20 {
		t.Errorf("spreadPct = %v, want 20", got)
	}
	// Two of three slices fast, one hit by a stall: the median slice is
	// what the window reports.
	win := &window{w: threeLang, slice: 1e9, slices: 3, cpu: make([]time.Duration, 4), alloc: make([]uint64, 4)}
	add := func(slice int, n int, lat int64) {
		for i := 0; i < n; i++ {
			win.samples = append(win.samples, sample{end: int64(slice)*1e9 + int64(i), lat: lat})
		}
	}
	add(0, 100, 1000)
	add(1, 10, 9000)
	add(2, 120, 2000)
	sum := win.summarize()
	if sum.throughput != 100 || sum.p50 != 2 || sum.ops != 230 {
		t.Errorf("median slice: throughput %v p50 %v ops %v, want 100, 2, 230", sum.throughput, sum.p50, sum.ops)
	}
}

func TestLadderSelf(t *testing.T) {
	self := ladderSelf([]float64{30, 12, 5})
	if !reflect.DeepEqual(self, []float64{18, 7, 5}) {
		t.Fatalf("ladderSelf = %v", self)
	}
	if sum := self[0] + self[1] + self[2]; sum != 30 {
		t.Errorf("self times sum to %v, want depth 0's 30", sum)
	}
}

func TestWeighted(t *testing.T) {
	mix := map[string]float64{"a": 0.8, "b": 0.1, "c": 0.1}
	if got, ok := weighted(map[string]float64{"a": 10, "b": 20, "c": 30}, mix); !ok || math.Abs(got-13) > 1e-9 {
		t.Errorf("weighted over all classes = %v, want 13", got)
	}
	// A layer only b and c reach is averaged over their share alone.
	if got, ok := weighted(map[string]float64{"b": 20, "c": 30}, mix); !ok || math.Abs(got-25) > 1e-9 {
		t.Errorf("weighted over a subset = %v, want 25", got)
	}
	if _, ok := weighted(nil, mix); ok {
		t.Error("weighted of nothing reported a value")
	}
}

func TestInterleave(t *testing.T) {
	got := interleave(analyticCycle)
	counts := make([]int, len(analyticCycle))
	for _, c := range got {
		counts[c]++
	}
	if !reflect.DeepEqual(counts, analyticCycle) {
		t.Fatalf("interleave kept counts %v, want %v", counts, analyticCycle)
	}
	// The two scans of 88 ops sit about half a cycle apart, not together.
	var scans []int
	for i, c := range got {
		if c == 1 {
			scans = append(scans, i)
		}
	}
	if d := scans[1] - scans[0]; d < 30 || d > 57 {
		t.Errorf("scan10k at %v: not spread over the cycle", scans)
	}
}

// TestScriptsDeterministic: the same seed gives the same data and the
// same op scripts, another seed gives others.
func TestScriptsDeterministic(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		build := func(seed int64) ([2][]op, []op) {
			return w.script(rand.New(rand.NewSource(seed)), w)
		}
		a1, l1 := build(7)
		a2, l2 := build(7)
		b, _ := build(8)
		if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(l1, l2) {
			t.Errorf("%s: two builds of seed 7 differ", w.name)
		}
		if w != threeLang && reflect.DeepEqual(a1, b) { // three_lang's ops take no parameters
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.name)
		}
		d1, d2 := w.data(rand.New(rand.NewSource(7))), w.data(rand.New(rand.NewSource(7)))
		for i := range d1 {
			if !equalBag(d1[i], d2[i]) {
				t.Errorf("%s: relation %d differs between two builds of seed 7", w.name, i)
			}
		}
	}
}

// TestQuickSmoke runs every workload in -quick mode, both halves, with
// the oracle on: no op may fail, every metric of the half must be there,
// the ladder must close and the trace file must hold spans.
func TestQuickSmoke(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			out := t.TempDir()
			rep, err := runWorkload(config{workload: w.name, seed: 3, quick: true, out: out})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("end to end: %d of %d ops failed: %v", rep.failed, rep.attempted, rep.firstErr)
			}
			for _, d := range endToEnd {
				if m, ok := rep.metrics[d.name]; !ok || m.value <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.name, m.value, ok)
				}
			}

			rep, err = runWorkload(config{workload: w.name, seed: 3, quick: true, trace: true, out: out})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("per layer: %d of %d ops failed: %v", rep.failed, rep.attempted, rep.firstErr)
			}
			m := rep.metrics
			sum := m["server.self_us"].value + m["engine.self_us"].value + m["ladder.below_us"].value
			if top := m["client.traced_p50_us"].value; top <= 0 || math.Abs(sum-top) > 1e-6*top {
				t.Errorf("ladder does not close: %v + %v + %v = %v, traced p50 %v",
					m["server.self_us"].value, m["engine.self_us"].value, m["ladder.below_us"].value, sum, top)
			}
			if got, want := m["server.self_us"].value, m["server.codec_us"].value+m["server.residual_us"].value; math.Abs(got-want) > 1e-6*math.Abs(got) {
				t.Errorf("server.self_us %v != codec + residual %v", got, want)
			}
			// A 200 ms window need not reach the rarest class; the most
			// frequent one it must.
			if _, ok := m["client."+w.classes[0].name+".p50_us"]; !ok {
				t.Errorf("class %s has no p50", w.classes[0].name)
			}
			line := rep.line(true)
			if len(line.Metrics) != len(perLayer()) {
				t.Errorf("result line has %d metrics, want every per-layer metric (%d)", len(line.Metrics), len(perLayer()))
			}

			f, err := os.Open(filepath.Join(out, "trace-"+w.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			n, depths := 0, map[string]bool{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("trace line %d: %v", n+1, err)
				}
				if s.ID != n+1 || s.End < s.Start || s.Name == "" || s.Parent >= s.ID {
					t.Fatalf("trace line %d: bad span %+v", n+1, s)
				}
				depths[strings.SplitN(s.Name, "/", 2)[0]] = true
				n++
			}
			for _, d := range []string{depthWire, depthEngine, depthBelow} {
				if !depths[d] {
					t.Errorf("trace has no %s span", d)
				}
			}
		})
	}
}

// TestCorruptOracleFails is the oracle's negative test: with one
// expected answer corrupted the run reports failed ops, which makes the
// command exit non-zero.
func TestCorruptOracleFails(t *testing.T) {
	t.Parallel()
	rep, err := runWorkload(config{workload: "three_lang", seed: 3, quick: true, out: t.TempDir(), corruptOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.firstErr == nil {
		t.Fatalf("corrupted oracle went unnoticed: %d of %d ops failed", rep.failed, rep.attempted)
	}
	if rep.line(false).Correct {
		t.Error("result line says correct")
	}
}

// TestTracedCountsRepeat: the traced pass runs fixed op counts on a
// single client, so its counts are identical between two runs of a seed.
func TestTracedCountsRepeat(t *testing.T) {
	t.Parallel()
	for _, w := range []*workload{oltpRead, threeLang, durableWrite} {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			counts := func() ladderCounts {
				scratch := t.TempDir()
				e, err := setup(w, 5, scratch)
				if err != nil {
					t.Fatal(err)
				}
				defer e.close()
				if err := e.prepareScripts(5); err != nil {
					t.Fatal(err)
				}
				res, err := e.runLadder(&tracer{}, scratch, true, 50)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("ladder: %d ops failed: %v", res.failed, res.firstErr)
				}
				return res.counts
			}
			a, b := counts(), counts()
			if a != b {
				t.Errorf("counts differ between two runs of one seed:\n%+v\n%+v", a, b)
			}
			switch {
			case a.frames == 0:
				t.Error("no frames counted")
			case w == threeLang && (a.fixpointQueries == 0 || a.fixpointRounds == 0):
				t.Error("no fixpoint rounds counted")
			case w == durableWrite && (a.walBytes == 0 || a.diskBytes == 0 || a.liveUserBytes == 0):
				t.Errorf("no storage bytes counted: %+v", a)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: same
// workloads, same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n prog %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer()) {
		t.Errorf("per_layer differs:\n json %v\n prog %v", layer, perLayer())
	}
	if len(layer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(layer))
	}
}

// TestLayersIsTheOnlyImporter: every call into the program under test
// goes through layers.go.
func TestLayersIsTheOnlyImporter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(strings.Trim(imp.Path.Value, `"`), "repro/") && name != "layers.go" {
				t.Errorf("%s imports %s; only layers.go may import the program under test", name, imp.Path.Value)
			}
		}
	}
}
