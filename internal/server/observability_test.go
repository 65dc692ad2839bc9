package server_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage"
	"repro/internal/value"
)

// --- Prometheus text exposition validator (no external dependencies) ---

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePromLine parses `name{k="v",...} value` or `name value`.
func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value on line %q", line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !promNameRe.MatchString(s.name) {
		return s, fmt.Errorf("bad metric name %q", s.name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		for _, kv := range strings.Split(rest[1:end], ",") {
			if kv == "" {
				continue
			}
			eq := strings.Index(kv, "=")
			if eq < 0 {
				return s, fmt.Errorf("bad label %q", kv)
			}
			v, err := strconv.Unquote(kv[eq+1:])
			if err != nil {
				return s, fmt.Errorf("label value %q not quoted: %v", kv[eq+1:], err)
			}
			s.labels[kv[:eq]] = v
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %v", rest, err)
	}
	s.value = v
	return s, nil
}

// validatePrometheus checks text against the 0.0.4 exposition format:
// every metric has HELP/TYPE before its samples, names are legal, values
// parse, and each histogram has cumulative buckets ending at le="+Inf"
// with a _count equal to the +Inf bucket.
func validatePrometheus(t *testing.T, text string) map[string][]promSample {
	t.Helper()
	types := map[string]string{}
	samples := map[string][]promSample{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			name := fields[2]
			if !promNameRe.MatchString(name) {
				t.Fatalf("line %d: bad metric name %q", ln+1, name)
			}
			if fields[1] == "TYPE" {
				kind := fields[3]
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: unknown metric type %q", ln+1, kind)
				}
				if _, dup := types[name]; dup {
					t.Fatalf("line %d: duplicate TYPE for %q", ln+1, name)
				}
				types[name] = kind
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		s, err := parsePromLine(line)
		if err != nil {
			t.Fatalf("line %d: %v", ln+1, err)
		}
		base := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(base, suf)
			if trimmed != base && types[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, s.name)
		}
		samples[base] = append(samples[base], s)
	}
	for name, kind := range types {
		if kind != "histogram" {
			continue
		}
		var prev float64
		var infCount, count float64
		sawInf := false
		for _, s := range samples[name] {
			switch s.name {
			case name + "_bucket":
				le, ok := s.labels["le"]
				if !ok {
					t.Fatalf("%s: bucket without le label", name)
				}
				if s.value < prev {
					t.Fatalf("%s: bucket le=%s count %v < previous %v (not cumulative)", name, le, s.value, prev)
				}
				prev = s.value
				if le == "+Inf" {
					sawInf = true
					infCount = s.value
				} else if _, err := strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("%s: bad le bound %q", name, le)
				}
			case name + "_count":
				count = s.value
			}
		}
		if !sawInf {
			t.Fatalf("%s: histogram has no +Inf bucket", name)
		}
		if infCount != count {
			t.Fatalf("%s: _count %v != +Inf bucket %v", name, count, infCount)
		}
	}
	return samples
}

// TestPrometheusExposition pins the default metrics rendering: valid
// 0.0.4 text format, with the query histogram cumulative and consistent.
func TestPrometheusExposition(t *testing.T) {
	srv, addr := startServer(t, testDB(), server.Options{})
	c := dial(t, addr)
	for i := 0; i < 4; i++ {
		if _, _, err := c.Query(client.LangSQL, "select R.A from R"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Exec(client.LangSQL, "insert into R values (99, 990)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := validatePrometheus(t, string(body))
	get := func(name string) float64 {
		t.Helper()
		ss, ok := samples[name]
		if !ok || len(ss) == 0 {
			t.Fatalf("metric %s missing from exposition", name)
		}
		return ss[0].value
	}
	// Execute and Exec frames both count: 4 queries + 1 insert.
	if got := get("arcserve_queries_executed_total"); got != 5 {
		t.Fatalf("arcserve_queries_executed_total = %v, want 5", got)
	}
	if got := get("arcserve_exec_dml_total"); got != 1 {
		t.Fatalf("arcserve_exec_dml_total = %v, want 1", got)
	}
	if got := get("arcserve_store_commits_total"); got < 1 {
		t.Fatalf("arcserve_store_commits_total = %v, want >= 1", got)
	}
	hist := samples["arcserve_query_duration_seconds"]
	if len(hist) == 0 {
		t.Fatal("query duration histogram missing")
	}
	// Exact power-of-two bounds: the first bucket is 1µs = 1e-06 s.
	var sawFirst bool
	for _, s := range hist {
		if s.name == "arcserve_query_duration_seconds_bucket" && s.labels["le"] == "1e-06" {
			sawFirst = true
		}
	}
	if !sawFirst {
		t.Fatalf("histogram lacks the exact 1e-06 first bound: %+v", hist)
	}
	// RAM-backed server: no storage series (they would read as a durable
	// deployment that never writes).
	if strings.Contains(string(body), "arcserve_wal_records_total") {
		t.Fatal("in-memory server exposes WAL metrics")
	}
}

// TestPrometheusStorageMetrics pins the durable-backend series: a server
// over OpenDurable exposes WAL/checkpoint/block-cache counters that move
// with the write path, and the JSON rendering carries the same block.
func TestPrometheusStorageMetrics(t *testing.T) {
	db, err := engine.OpenDurable(t.TempDir(), storage.Options{},
		relation.New("R", "A", "B").Add(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, addr := startServer(t, db, server.Options{})
	c := dial(t, addr)
	if _, err := c.Exec(client.LangSQL, "insert into R values (2, 20)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(client.LangSQL, "update R set B = 0 where R.A = 2"); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := validatePrometheus(t, string(body))
	for _, name := range []string{
		"arcserve_wal_records_total",
		"arcserve_wal_bytes_total",
		"arcserve_checkpoints_total",
		"arcserve_checkpoint_generation",
		"arcserve_block_cache_hits_total",
		"arcserve_block_cache_misses_total",
		"arcserve_recovery_duration_seconds",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("metric %s missing from durable exposition", name)
		}
	}
	if ss := samples["arcserve_wal_records_total"]; len(ss) > 0 && ss[0].value < 2 {
		t.Fatalf("arcserve_wal_records_total = %v, want >= 2 (insert + update)", ss[0].value)
	}

	snap := srv.Snapshot()
	if snap.Storage == nil || snap.Storage.WALRecords < 2 {
		t.Fatalf("Snapshot().Storage = %+v, want WAL records >= 2", snap.Storage)
	}
}

// TestAnalyzeOverWire pins EXPLAIN ANALYZE through the wire protocol:
// the rendered plan carries actual row counts, and analyzing a non-query
// statement is a structured WRONG_KIND error.
func TestAnalyzeOverWire(t *testing.T) {
	_, addr := startServer(t, testDB(), server.Options{})
	c := dial(t, addr)
	stmt, err := c.Prepare(client.LangSQL, "select R.A, R.B from R where R.A >= $1")
	if err != nil {
		t.Fatal(err)
	}
	text, err := stmt.ExplainAnalyze(value.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "rows=3") {
		t.Fatalf("analyze output lacks actual row count:\n%s", text)
	}
	if !strings.Contains(text, "Total: rows=3") {
		t.Fatalf("analyze output lacks total line:\n%s", text)
	}
	// The handle still answers ordinary queries after an analyze run.
	rows, err := stmt.QueryAll(value.Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows after analyze = %v", rows)
	}
	// A Datalog statement analyzes like the ARC it lowers to: per-scope
	// plans plus the fixpoint's round history.
	dl, err := c.Prepare(client.LangDatalog, "A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).")
	if err != nil {
		t.Fatal(err)
	}
	text, err = dl.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fixpoint A (semi-naive, ΔA per round):", "HashJoin INNER (t3.x1 = t2.t) index(P) (rows=", "Fixpoint A: rounds=", "Total: rows="} {
		if !strings.Contains(text, want) {
			t.Fatalf("datalog analyze output lacks %q:\n%s", want, text)
		}
	}
	// An aggregate and a negated atom analyze as operators of the scope
	// around them, with their own counters: an aggregate over the
	// relation it is correlated with as one γ whose NULL-keyed group
	// folds no row.
	for _, ddl := range []string{
		"create table G (A, B)", "insert into G values (1, 10)", "insert into G values (1, 20)", "insert into G values (2, 5)",
		"insert into G values (null, 7)",
		"create table S (B, C)", "insert into S values (10, 0)", "insert into S values (20, 1)",
	} {
		if _, err := c.Exec(client.LangSQL, ddl); err != nil {
			t.Fatal(err)
		}
	}
	for src, wants := range map[string][]string{
		"Q(a,sm) :- G(a,_), sm = sum b : {G(a,b)}.": {"(FOI as FIO: set semantics):", "GroupAggregate keys=[t1.A] aggs=[sum(t1.B)] null-keyed=empty (rows=3 ", "Scan G as t1 (rows=4 ", "Total: rows=3"},
		"Q(a) :- R(a,b), !S(b,0).":                  {"AntiProbe ∃t2 ∈ S (probes=5 matches=1)", "Total: rows=4"},
	} {
		dl, err := c.Prepare(client.LangDatalog, src)
		if err != nil {
			t.Fatal(err)
		}
		if text, err = dl.ExplainAnalyze(); err != nil {
			t.Fatal(err)
		}
		for _, want := range append(wants, "Project [") {
			if !strings.Contains(text, want) || strings.Contains(text, "environment enumeration") {
				t.Fatalf("%s: analyze output lacks %q or enumerates:\n%s", src, want, text)
			}
		}
	}
	sums, _, err := c.Query(client.LangDatalog, "Q(a,sm) :- G(a,_), sm = sum b : {G(a,b)}.")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(sums, func(r []value.Value) bool { return r[0].IsNull() && r[1].Equal(value.Int(0)) }) || len(sums) != 3 {
		t.Fatalf("grouped sum over G = %v, want (NULL, 0) among 3 rows", sums)
	}
	// SQL outside the planner fragment renders the reference evaluator's
	// one step instead of failing.
	fb, err := c.Prepare(client.LangSQL, "select R.A, X.t from R, lateral (select P.t from P where P.s = R.A) X")
	if err != nil {
		t.Fatal(err)
	}
	text, err = fb.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text, "Enumeration (reference evaluator): not plannable: LATERAL subquery\nTotal: rows=5 time=") {
		t.Fatalf("fallback analyze output:\n%s", text)
	}
	ins, err := c.Prepare(client.LangSQL, "insert into R values (7, 70)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.ExplainAnalyze(); err == nil {
		t.Fatal("analyzing DML succeeded, want WRONG_KIND")
	} else if we, ok := err.(*server.WireError); !ok || we.Code != server.CodeWrongKind {
		t.Fatalf("err = %v, want WRONG_KIND", err)
	}
}

// TestDropTableOverWire pins DROP TABLE end to end: create, insert,
// query, drop, then both querying and re-dropping fail.
func TestDropTableOverWire(t *testing.T) {
	_, addr := startServer(t, testDB(), server.Options{})
	c := dial(t, addr)
	if _, err := c.Exec(client.LangSQL, "create table Tmp (a, b)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(client.LangSQL, "insert into Tmp values (1, 2)"); err != nil {
		t.Fatal(err)
	}
	rows, _, err := c.Query(client.LangSQL, "select Tmp.a from Tmp")
	if err != nil || len(rows) != 1 {
		t.Fatalf("pre-drop query: rows=%v err=%v", rows, err)
	}
	drop, err := c.Prepare(client.LangSQL, "drop table Tmp")
	if err != nil {
		t.Fatal(err)
	}
	if drop.Kind() != client.KindDDL {
		t.Fatalf("drop kind = %v, want DDL", drop.Kind())
	}
	res, err := drop.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation == 0 {
		t.Fatal("drop reported generation 0, want a committed generation")
	}
	if _, _, err := c.Query(client.LangSQL, "select Tmp.a from Tmp"); err == nil {
		t.Fatal("query after drop succeeded")
	}
	if _, err := c.Exec(client.LangSQL, "drop table Tmp"); err == nil {
		t.Fatal("double drop succeeded")
	}
}
