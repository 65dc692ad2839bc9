package repro

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/value"
	"repro/internal/workload"
)

// serverBenchDB builds the wire-throughput workload: a point-lookup
// table, a pair of joinable relations, and a chain for recursion.
func serverBenchDB() *engine.DB {
	r := relation.New("R", "A", "B")
	for i := 0; i < 1000; i++ {
		r.Add(i, i*10)
	}
	j1 := relation.New("J1", "X", "V")
	j2 := relation.New("J2", "Y", "W")
	for i := 0; i < 100; i++ {
		j1.Add(i, i+1000)
		j2.Add(i, i+2000)
	}
	p := workload.Chain(20)
	return engine.Open(r, j1, j2, p)
}

// startBenchServer serves db on a loopback port until the benchmark
// ends, returning the server and its address.
func startBenchServer(b *testing.B, db *engine.DB) (*server.Server, string) {
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

// scanBenchRows and scanBenchSQL are the range BenchmarkServerScan
// ships and BenchmarkServerScanInProcess drains: arcbench's scan10k.
const (
	scanBenchRows = 10_000
	scanBenchSQL  = "select R.A, R.B from R where R.A >= $1 and R.A < $2"
)

func scanBenchDB() *engine.DB {
	r := relation.New("R", "A", "B")
	for i := 0; i < scanBenchRows; i++ {
		r.Add(i, i%997)
	}
	return engine.Open(r)
}

// BenchmarkServerScan ships a prepared 10 000-row range through the
// client: the Fetch path, one batch per op under the default byte bound
// (40 under a 256-row FetchRows), reported as batches/op. With
// -benchmem, allocs/op over 10 000 is the wire's allocations per row. Its
// ns/op over BenchmarkServerScanInProcess's is the wire's share of a
// scan (ROADMAP item 10 aims at ≤ 3×).
func BenchmarkServerScan(b *testing.B) {
	srv, addr := startBenchServer(b, scanBenchDB())
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	scan, err := c.Prepare(client.LangSQL, scanBenchSQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := srv.Snapshot().FetchBatches
	for i := 0; i < b.N; i++ {
		rows, err := scan.QueryAll(value.Int(0), value.Int(scanBenchRows))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != scanBenchRows {
			b.Fatalf("rows = %d, want %d", len(rows), scanBenchRows)
		}
	}
	b.ReportMetric(float64(srv.Snapshot().FetchBatches-before)/float64(b.N), "batches/op")
}

// BenchmarkServerScanInProcess drains BenchmarkServerScan's statement
// through an engine cursor, as an in-process caller reads it: pulled row
// by row (Next), and pushed (Each).
func BenchmarkServerScanInProcess(b *testing.B) {
	scan, err := scanBenchDB().Prepare(engine.LangSQL, scanBenchSQL)
	if err != nil {
		b.Fatal(err)
	}
	drains := []struct {
		name  string
		drain func(*engine.Rows) int
	}{
		{"next", func(rows *engine.Rows) (n int) {
			for rows.Next() {
				n++
			}
			return n
		}},
		{"each", func(rows *engine.Rows) (n int) {
			rows.Each(func([]value.Value) bool { n++; return true })
			return n
		}},
	}
	for _, d := range drains {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := scan.Query(context.Background(), 0, scanBenchRows)
				if err != nil {
					b.Fatal(err)
				}
				n := d.drain(rows)
				if err := rows.Close(); err != nil || n != scanBenchRows {
					b.Fatalf("rows = %d, err %v", n, err)
				}
			}
		})
	}
}

// groupBenchRows and groupBenchSQL are arcbench's group997: 100 000 rows
// of R in 997 groups of R.B.
const (
	groupBenchRows = 100_000
	groupBenchSQL  = "select R.B, count(*) as n from R group by R.B"
)

// BenchmarkGroupInProcess drains a prepared γ over column keys, which
// reads its input rows in place, through an engine cursor pushed with
// Each: the in-process share of arcbench's group997.
func BenchmarkGroupInProcess(b *testing.B) { benchGroup(b, groupBenchSQL) }

// BenchmarkGroupSumInProcess is BenchmarkGroupInProcess with sum and avg
// beside count(*): aggregates that read every row's tuple and check its
// input is numeric.
func BenchmarkGroupSumInProcess(b *testing.B) {
	benchGroup(b, "select R.B, count(*) as n, sum(R.A) as s, avg(R.A) as a from R group by R.B")
}

// benchGroup drains the prepared γ src over groupBenchRows rows of R in
// 997 groups of R.B.
func benchGroup(b *testing.B, src string) {
	r := relation.New("R", "A", "B")
	for i := 0; i < groupBenchRows; i++ {
		r.Add(i, i%997)
	}
	group, err := engine.Open(r).Prepare(engine.LangSQL, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := group.Query(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		rows.Each(func([]value.Value) bool { n++; return true })
		if err := rows.Close(); err != nil || n != 997 {
			b.Fatalf("groups = %d, err %v", n, err)
		}
	}
}

// BenchmarkServerPoint reads one row by key through a prepared
// statement: Bind, Execute and the first Fetch in one write, one batch
// back. It is the per-cursor cost of the wire, which a scan spreads over
// 10 000 rows.
func BenchmarkServerPoint(b *testing.B) {
	_, addr := startBenchServer(b, serverBenchDB())
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	point, err := c.Prepare(client.LangSQL, "select R.A, R.B from R where R.A = $1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := point.QueryAll(value.Int(int64(i % 1000)))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatalf("rows = %d, want 1", len(rows))
		}
	}
}

// BenchmarkServerPointAdhoc reads BenchmarkServerPoint's row through
// Conn.Query, as one-shot text: Prepare, Bind, Execute, the first Fetch
// and the statement's Close in one write. The text is the same each
// time, so the server's Prepare is a statement-cache hit; ns/op against
// BenchmarkServerPoint's is what an ad-hoc read costs over a prepared
// one.
func BenchmarkServerPointAdhoc(b *testing.B) {
	_, addr := startBenchServer(b, serverBenchDB())
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := c.Query(client.LangSQL, "select R.A, R.B from R where R.A = 7")
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatalf("rows = %d, want 1", len(rows))
		}
	}
}

// BenchmarkServerThroughput measures end-to-end wire-protocol throughput:
// N concurrent client sessions each cycling a point lookup, a hash join,
// and a recursive transitive closure through prepared statements over
// one shared server. The per-statement metrics contract is asserted at
// the end of every run — a server that stops reporting is a failure,
// not just a regression.
func BenchmarkServerThroughput(b *testing.B) {
	for _, sessions := range []int{4, 8} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			srv, addr := startBenchServer(b, serverBenchDB())

			type sessionStmts struct {
				conn                   *client.Conn
				point, join, recursive *client.Stmt
			}
			conns := make([]sessionStmts, sessions)
			for i := range conns {
				c, err := client.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				point, err := c.Prepare(client.LangSQL, "select R.A, R.B from R where R.A = $1")
				if err != nil {
					b.Fatal(err)
				}
				join, err := c.Prepare(client.LangSQL, "select J1.V, J2.W from J1, J2 where J1.X = J2.Y")
				if err != nil {
					b.Fatal(err)
				}
				recursive, err := c.Prepare(client.LangSQL,
					"with recursive A (s, t) as (select P.s, P.t from P union select P.s, A.t from P, A where P.t = A.s) select A.s, A.t from A")
				if err != nil {
					b.Fatal(err)
				}
				conns[i] = sessionStmts{conn: c, point: point, join: join, recursive: recursive}
			}

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			errc := make(chan error, sessions)
			for i := range conns {
				share := b.N / sessions
				if i < b.N%sessions {
					share++
				}
				wg.Add(1)
				go func(s sessionStmts, share, seed int) {
					defer wg.Done()
					for it := 0; it < share; it++ {
						var want int
						var rows [][]value.Value
						var err error
						switch it % 3 {
						case 0:
							rows, err = s.point.QueryAll(value.Int(int64((seed + it) % 1000)))
							want = 1
						case 1:
							rows, err = s.join.QueryAll()
							want = 100
						default:
							rows, err = s.recursive.QueryAll()
							want = 19 * 20 / 2 // TC of the 19-edge chain
						}
						if err != nil {
							errc <- err
							return
						}
						if len(rows) != want {
							errc <- fmt.Errorf("rows = %d, want %d", len(rows), want)
							return
						}
					}
				}(conns[i], share, i*131)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			snap := srv.Snapshot()
			if snap.QueriesExecuted < uint64(b.N) || snap.QueryCount < uint64(b.N) || snap.RowsStreamed == 0 {
				b.Fatalf("per-statement metrics missing: %+v", snap)
			}
		})
	}
}
