// Command arcserve is the network daemon over the unified engine: it
// loads a data file, opens an engine.DB — in memory, or durably over a
// write-ahead-logged storage directory — and serves the wire protocol
// (see internal/server) on a TCP address, with an optional HTTP metrics
// endpoint for capacity planning.
//
// Usage:
//
//	arcserve [flags]
//
//	-addr host:port      listen address (default 127.0.0.1:7878)
//	-db file             data file to load (see internal/dbfile format);
//	                     with -wal-dir it seeds a fresh directory only —
//	                     recovered state wins on restart
//	-wal-dir dir         durable storage directory: commits are
//	                     write-ahead logged and the daemon cold-starts
//	                     from checkpoint + WAL replay ("" = RAM only)
//	-fsync               fsync every WAL append before acknowledging
//	                     (kill -9 durability; slower commits)
//	-checkpoint-interval d  periodic full-snapshot checkpoint + WAL
//	                     truncation (default 5m, 0 = only at shutdown)
//	-metrics host:port   serve /metrics on this address ("" = off):
//	                     Prometheus text format by default,
//	                     ?format=json for the JSON snapshot
//	-slow-log file       structured slow-query log, one JSON object per
//	                     line ("-" = stderr, "" = off)
//	-slow-threshold d    statements at least this slow are logged
//	                     (default 100ms)
//	-fetch N             default Fetch batch size in rows (0 = no row
//	                     cap: a batch ends at 256 KiB of encoded rows)
//	-v                   log connection-level diagnostics
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight queries are cancelled through the engine's context plumbing,
// sessions drain (10s grace, then forced), and a durable daemon writes a
// final checkpoint so the next start replays nothing.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dbfile"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "arcserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	fs := newFlags(&cfg)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}

	var rels []*relation.Relation
	if cfg.dbPath != "" {
		var err error
		rels, err = dbfile.Load(cfg.dbPath)
		if err != nil {
			return err
		}
	}
	db, err := openDB(cfg, rels)
	if err != nil {
		return err
	}
	defer db.Close()
	if cfg.slowLog != "" {
		w := io.Writer(os.Stderr)
		if cfg.slowLog != "-" {
			f, err := os.OpenFile(cfg.slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		db.SetSlowQueryLog(w, cfg.slowMs)
		log.Printf("arcserve: slow-query log (>= %v) to %s", cfg.slowMs, cfg.slowLog)
	}
	opts := server.Options{FetchRows: cfg.fetch}
	if cfg.verbose {
		opts.Logf = log.Printf
	}
	srv := server.New(db, opts)

	if cfg.metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		go func() {
			if err := http.ListenAndServe(cfg.metrics, mux); err != nil {
				log.Printf("arcserve: metrics endpoint: %v", err)
			}
		}()
		log.Printf("arcserve: metrics on http://%s/metrics", cfg.metrics)
	}

	stopCkpt := startCheckpointer(db, cfg.ckptIval)
	defer stopCkpt()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(cfg.addr) }()
	log.Printf("arcserve: serving %d relation(s) on %s", len(db.Store().Head().Names()), cfg.addr)

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("arcserve: %v — draining sessions", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("arcserve: forced shutdown: %v", err)
		}
		<-errc
		if db.Durable() {
			if err := db.Checkpoint(); err != nil {
				log.Printf("arcserve: shutdown checkpoint: %v", err)
			} else {
				log.Printf("arcserve: shutdown checkpoint at generation %d", db.Generation())
			}
		}
		return nil
	}
}

// openDB opens the engine: durable over -wal-dir (logging what recovery
// found and replayed), in-memory otherwise.
func openDB(cfg config, seed []*relation.Relation) (*engine.DB, error) {
	if cfg.walDir == "" {
		return engine.Open(seed...), nil
	}
	db, err := engine.OpenDurable(cfg.walDir, storage.Options{Fsync: cfg.fsync}, seed...)
	if err != nil {
		return nil, err
	}
	rs, _ := db.RecoveryStats()
	log.Printf("arcserve: recovered %s: checkpoint gen %d + %d WAL record(s) (%d byte(s)) -> gen %d, %d relation(s), truncated=%v, in %v",
		cfg.walDir, rs.CheckpointGen, rs.Records, rs.Bytes, rs.Gen, rs.Relations, rs.Truncated, rs.Duration)
	if cfg.fsync {
		log.Printf("arcserve: fsync on every commit")
	}
	return db, nil
}

// startCheckpointer runs periodic checkpoints on a durable DB; the
// returned stop function is idempotent. No-op for RAM DBs or interval 0.
func startCheckpointer(db *engine.DB, interval time.Duration) (stop func()) {
	if !db.Durable() || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := db.Checkpoint(); err != nil {
					log.Printf("arcserve: periodic checkpoint: %v", err)
				}
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(done)
		}
	}
}
