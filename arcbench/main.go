// Command arcbench is the repository's benchmark: five closed-loop
// workloads against an in-process server on a loopback listener, driven
// through the wire client, every reply checked against an oracle.
//
//	go run ./arcbench -seed 1                      # all five workloads, both halves
//	go run ./arcbench -workload oltp_read -seed 1 -seconds 12 -trace 0
//
// With -workload it runs that workload once and prints, as the last
// line of standard output, one JSON object: the end-to-end metrics
// (-trace 0, no spans recorded) or the per-layer metrics (-trace 1, the
// traced ladder; spans go to arcbench/out/trace-<workload>.jsonl).
// Without it, it re-executes itself once per workload and half, so that
// set-up time and peak memory are per workload. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system would see, measured
// with no spans recorded. BENCHMARK.json gives each its bound.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_us", "us"},
	{"alloc_kb_per_op", "KB"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists every per-layer metric: the fixed ones below plus
// client.<class>.p50_us and client.<class>.share_pct for every class.
func perLayer() []metricDef {
	defs := []metricDef{
		{"server.self_us", "us"}, {"server.codec_us", "us"}, {"server.residual_us", "us"},
		{"server.frames_per_op", "count"}, {"server.rows_per_op", "count"}, {"server.fetch_batches_per_op", "count"},
		{"server.scaling_ratio", "ratio"},
		{"engine.self_us", "us"}, {"engine.prepare_hit_us", "us"}, {"engine.prepare_miss_us", "us"},
		{"engine.stmt_cache_hit_rate", "ratio"}, {"engine.prepares_per_op", "count"},
		{"engine.conflict_retries_per_commit", "count"},
		{"ladder.below_us", "us"},
		{"sql.parse_us", "us"}, {"plan.compile_us", "us"}, {"arc.parse_us", "us"}, {"datalog.parse_us", "us"},
		{"exec.run_us", "us"}, {"eval.run_us", "us"}, {"datalog.run_us", "us"},
		{"fixpoint.rounds_per_query", "count"}, {"fixpoint.delta_rows_per_query", "count"},
		{"relation.probe_us", "us"}, {"relation.range_probe_us", "us"}, {"relation.index_build_us", "us"},
		{"relation.clone_us", "us"}, {"relation.commit_us", "us"}, {"relation.conflict_rate", "ratio"},
		{"storage.wal_append_us", "us"}, {"storage.fsync_us", "us"},
		{"storage.wal_bytes_per_commit", "B"}, {"storage.wal_bytes_per_user_byte", "ratio"},
		{"storage.checkpoint_us", "us"}, {"storage.checkpoint_bytes", "B"}, {"storage.checkpoint_stall_us", "us"},
		{"storage.recovery_us_per_record", "us"}, {"storage.block_cache_hit_rate", "ratio"},
		{"storage.recovery_s", "s"}, {"storage.disk_bytes_per_user_byte", "ratio"},
		{"client.ops", "count"}, {"client.error_rate", "ratio"},
		{"client.latency_p95_us", "us"}, {"client.latency_p99_us", "us"}, {"client.latency_max_us", "us"},
		{"client.slowest_class_p50_us", "us"}, {"client.cpu_us_per_op", "us"}, {"client.peak_rss_mb", "MB"},
		{"client.single_p50_us", "us"}, {"client.traced_p50_us", "us"}, {"client.trace_overhead_pct", "%"},
		{"client.slice_spread_pct", "%"}, {"client.read_p50_us", "us"}, {"client.write_p50_us", "us"},
	}
	for _, w := range workloads {
		for _, c := range w.classes {
			defs = append(defs, metricDef{"client." + c.name + ".p50_us", "us"}, metricDef{"client." + c.name + ".share_pct", "%"})
		}
	}
	return defs
}

// resultLine is the JSON object the driver reads. Its metrics are every
// metric of the half that ran; one that does not apply to the workload
// is written as 0 there (and left out of the table printed above it).
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsOf lists the metrics one half reports.
func metricsOf(trace bool) []metricDef {
	if trace {
		return perLayer()
	}
	return endToEnd
}

func (r *report) line(trace bool) resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range metricsOf(trace) {
		out.Metrics[d.name] = metricValue{Value: r.metrics[d.name].value, Unit: d.unit}
	}
	return out
}

// print writes the human-readable table and then the result line.
func (r *report) print(cfg config) error {
	fmt.Printf("workload %s  seed %d  clients %d (closed loop)  nproc %d  GOMAXPROCS %d  flush policy: %s\n",
		r.workload, cfg.seed, nClients, runtime.NumCPU(), runtime.GOMAXPROCS(0), flushPolicy(r.workload))
	for _, d := range metricsOf(cfg.trace) {
		if m, ok := r.metrics[d.name]; ok {
			fmt.Printf("  %-36s %14.4f %-6s n=%d\n", d.name, m.value, d.unit, m.n)
		}
	}
	if cfg.trace {
		if s, ok := r.metrics["server.self_us"]; ok {
			sum := s.value + r.metrics["engine.self_us"].value + r.metrics["ladder.below_us"].value
			fmt.Printf("  ladder: server.self_us + engine.self_us + ladder.below_us = %.4f us; client.traced_p50_us = %.4f us, client.single_p50_us = %.4f us (untraced)\n",
				sum, r.metrics["client.traced_p50_us"].value, r.metrics["client.single_p50_us"].value)
		}
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  ops attempted %d, failed %d\n", r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Printf("  first failure: %v\n", r.firstErr)
	}
	b, err := json.Marshal(r.line(cfg.trace))
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func flushPolicy(workload string) string {
	if w := findWorkload(workload); w != nil && w.durable {
		return "fsync per commit"
	}
	return "none (in memory)"
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all five, each in its own subprocess)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the data and op scripts derive from")
	flag.IntVar(&cfg.seconds, "seconds", 12, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, no spans; 1: per-layer metrics and the traced ladder")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke run: 200 ms slices and a twentieth of the ladder's op counts")
	flag.StringVar(&cfg.out, "out", "arcbench/out", "directory for trace files and scratch storage")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds < 1 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if cfg.workload == "" {
		os.Exit(runAll(cfg))
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arcbench:", err)
		os.Exit(1)
	}
	if err := rep.print(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "arcbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload and half and prints
// each child's table; it exits non-zero if any child did.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "arcbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(trace), "-out", cfg.out}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			err := cmd.Run()
			// The child's last line is the driver's JSON; the table above
			// it is what a person reads.
			lines := bytes.Split(bytes.TrimRight(out.Bytes(), "\n"), []byte("\n"))
			if n := len(lines); n > 1 {
				lines = lines[:n-1]
			}
			os.Stdout.Write(append(bytes.Join(lines, []byte("\n")), '\n'))
			if err != nil {
				fmt.Fprintf(os.Stderr, "arcbench: %s -trace %d: %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	return code
}
