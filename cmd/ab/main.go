// Command ab compares the working tree with a base commit on the
// repository benchmark: it unpacks the base under .bench_build/ab/, builds
// arcbench in both trees with arcbench/run.sh's environment, runs N
// alternated pairs per workload and seed (who goes first flips every pair)
// from the working tree's root, so both sides keep their scratch storage
// in the same place, and prints per workload and metric each side's
// median and quartiles, the change in the median, pairs won, and a
// verdict by the choosing-metrics guide's rule (§8) against the bounds in
// BENCHMARK.json, which it only reads. Every run goes into the -out file, one BENCH_<pr>.json per PR.
//
//	go run ./cmd/ab -base <sha> [-n 10] [-seeds 1,2] [-workloads a,b] [-trace 0] [-out bench/BENCH_ab.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// benchmark is the part of BENCHMARK.json ab reads.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []metric `json:"end_to_end"`
	PerLayer   []metric `json:"per_layer"`
}

type metric struct {
	Name, Better string
	Bound        float64 // 0: the benchmark fixes none
}

// run is one execution of one side, as it goes into the -out file.
type run struct {
	Workload string             `json:"workload"`
	Seed     string             `json:"seed"`
	Trace    int                `json:"trace"`
	Pair     int                `json:"pair"`
	Side     string             `json:"side"` // "parent" or "change"
	First    bool               `json:"first"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "commit to compare the working tree against (required)")
	n := flag.Int("n", 10, "alternated pairs per workload and seed")
	seeds := flag.String("seeds", "1", "comma-separated workload seeds")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	out := flag.String("out", "bench/BENCH_ab.json", "file every run is written to")
	flag.Parse()
	log.SetFlags(0)
	if *base == "" {
		log.Fatal("ab: -base <commit> is required")
	}
	var bm benchmark
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bm)
	}
	if err != nil {
		log.Fatalf("ab: BENCHMARK.json: %v", err)
	}
	metrics, names := bm.EndToEnd, strings.FieldsFunc(*workloads, func(r rune) bool { return r == ',' })
	if *trace != 0 {
		metrics = bm.PerLayer
	}
	if len(names) == 0 {
		for _, w := range bm.Workloads {
			names = append(names, w.Name)
		}
	}

	root, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	build := filepath.Join(root, ".bench_build")
	parent := filepath.Join(build, "ab", "parent")
	sh(root, nil, "sh", "-c", `rm -rf "$2" && mkdir -p "$2" "$3" && git archive "$1" | tar -x -C "$2"`,
		"sh", *base, parent, filepath.Join(build, "tmp"))
	// arcbench/run.sh's environment verbatim; -mod=vendor is vacuous at zero requirements, needed for parents that vendor.
	env := append(os.Environ(), "GOCACHE="+filepath.Join(build, "gocache"), "GOTMPDIR="+filepath.Join(build, "tmp"),
		"GOFLAGS=-mod=vendor", "GOTOOLCHAIN=local", "GOPROXY=off")
	sides := []struct{ name, dir, bin string }{
		{"parent", parent, filepath.Join(build, "ab", "arcbench-parent")},
		{"change", root, filepath.Join(build, "ab", "arcbench-change")},
	}
	for _, s := range sides {
		sh(s.dir, env, "go", "build", "-o", s.bin, "./arcbench")
	}

	// The -out file accumulates across invocations (other seeds, the traced half).
	var kept struct{ Runs []run }
	if raw, err := os.ReadFile(*out); err == nil && json.Unmarshal(raw, &kept) != nil {
		log.Fatalf("ab: %s exists and is not a file of runs", *out)
	}
	var runs []run
	for _, w := range names {
		for _, seed := range strings.Split(*seeds, ",") {
			for pair := 0; pair < *n; pair++ {
				for k := 0; k < 2; k++ {
					s := sides[(pair+k)%2]
					line := sh(root, env, s.bin, "--workload", w, "--seed", seed,
						"--seconds", fmt.Sprint(bm.RunSeconds), "--trace", fmt.Sprint(*trace))
					var res struct {
						Failed  int
						Metrics map[string]struct{ Value float64 }
					}
					if err := json.Unmarshal([]byte(line[strings.LastIndexByte(line, '\n')+1:]), &res); err != nil {
						log.Fatalf("ab: %s %s: last line is not the result object: %v", s.name, w, err)
					}
					r := run{w, seed, *trace, pair, s.name, k == 0, res.Failed, map[string]float64{}}
					for name, v := range res.Metrics {
						r.Metrics[name] = v.Value
					}
					runs = append(runs, r)
					log.Printf("%s seed %s pair %d %s: failed=%d", w, seed, pair, s.name, r.Failed)
					doc, err := json.MarshalIndent(map[string]any{
						"base": *base, "seconds": bm.RunSeconds, "runs": append(kept.Runs[:len(kept.Runs):len(kept.Runs)], runs...)}, "", " ")
					if err == nil {
						err = os.WriteFile(*out, append(doc, '\n'), 0o644)
					}
					if err != nil {
						log.Fatalf("ab: %s: %v", *out, err)
					}
				}
			}
		}
	}
	report(runs, names, strings.Split(*seeds, ","), metrics)
}

// sh runs a command in dir and returns its standard output, trimmed; failure is fatal.
func sh(dir string, env []string, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Env, cmd.Stderr = dir, env, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		log.Fatalf("ab: %s %s (in %s): %v", name, strings.Join(args, " "), dir, err)
	}
	return strings.TrimSpace(string(out))
}

// report prints one row per workload, seed and metric.
func report(runs []run, workloads, seeds []string, metrics []metric) {
	fmt.Printf("%-14s %-4s %-32s %30s %30s %8s %6s  %s\n", "workload", "seed", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "Δ", "won", "verdict")
	for _, w := range workloads {
		for _, seed := range seeds {
			for _, m := range metrics {
				var p, c []float64 // by pair
				for _, r := range runs {
					if v, ok := r.Metrics[m.Name]; r.Workload != w || r.Seed != seed || !ok {
						continue
					} else if r.Side == "parent" {
						p = append(p, v)
					} else {
						c = append(c, v)
					}
				}
				if len(p) == 0 || len(p) != len(c) {
					continue
				}
				pm, p1, p3 := quartiles(p)
				cm, c1, c3 := quartiles(c)
				if pm == 0 && cm == 0 {
					continue // not measured on this workload
				}
				fmt.Printf("%-14s %-4s %-32s %30s %30s %+7.1f%% %3d/%-2d  %s\n", w, seed, m.Name,
					fmt.Sprintf("%.4g [%.4g, %.4g]", pm, p1, p3), fmt.Sprintf("%.4g [%.4g, %.4g]", cm, c1, c3),
					100*(cm-pm)/pm, wins(p, c, m.Better), len(p), verdict(p, c, m))
			}
		}
	}
	failed := map[string]int{}
	for _, r := range runs {
		failed[r.Side] += r.Failed
	}
	fmt.Printf("operations failed: parent %d, change %d\n", failed["parent"], failed["change"])
}

// quartiles returns the median and the first and third quartile.
func quartiles(xs []float64) (med, q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	at := func(q float64) float64 { // linear interpolation between order statistics
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.5), at(0.25), at(0.75)
}

// better reports whether a beats b where dir is the better direction.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// wins counts the pairs in which the change beat the parent.
func wins(p, c []float64, dir string) int {
	n := 0
	for i := range p {
		if better(c[i], p[i], dir) {
			n++
		}
	}
	return n
}

// verdict applies the guide's rule. gain: the change wins at least nine
// tenths of the pairs and the medians differ by more than the distance
// between the parent's quartiles. worse: the parent wins as many and the
// median is worse by more than the metric's bound. unresolved: the median
// is beyond the bound without the pairs agreeing, or either side's
// quartiles lie further apart than the bound, so the runs cannot tell —
// unless every run of the change beats every run of the parent. A metric
// without a bound gets gain or flat only.
func verdict(p, c []float64, m metric) string {
	pm, p1, p3 := quartiles(p)
	cm, c1, c3 := quartiles(c)
	need, limit := (9*len(p)+9)/10, m.Bound*math.Abs(pm)
	beyond := better(pm, cm, m.Better) && math.Abs(cm-pm) > limit
	worstC, bestP := slices.Min(c), slices.Max(p)
	if m.Better != "higher" {
		worstC, bestP = slices.Max(c), slices.Min(p)
	}
	switch {
	case better(cm, pm, m.Better) && wins(p, c, m.Better) >= need && math.Abs(cm-pm) > p3-p1:
		return "gain"
	case m.Bound == 0:
		return "flat"
	case beyond && wins(c, p, m.Better) >= need:
		return "worse"
	case (beyond || p3-p1 > limit || c3-c1 > limit) && !better(worstC, bestP, m.Better):
		return "unresolved"
	}
	return "flat"
}
