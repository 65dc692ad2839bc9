package main

import (
	"flag"
	"time"
)

// config carries the daemon's flag values.
type config struct {
	addr    string
	dbPath  string
	metrics string
	slowLog string
	slowMs  time.Duration
	fetch   int
	verbose bool

	// Durability (see internal/storage): empty walDir serves RAM-only.
	walDir   string
	fsync    bool
	ckptIval time.Duration
}

// newFlags builds the daemon's flag set (split out for testability).
func newFlags(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("arcserve", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7878", "listen address")
	fs.StringVar(&c.dbPath, "db", "", "data file to load (seeds a fresh -wal-dir; recovered state wins)")
	fs.StringVar(&c.metrics, "metrics", "", "HTTP metrics address (empty = off)")
	fs.StringVar(&c.slowLog, "slow-log", "", "slow-query log file, JSON lines (\"-\" = stderr, empty = off)")
	fs.DurationVar(&c.slowMs, "slow-threshold", 100*time.Millisecond, "statements at least this slow are logged (with -slow-log)")
	fs.IntVar(&c.fetch, "fetch", 0, "default Fetch batch size in rows (0 = batches end at the 256 KiB byte bound)")
	fs.BoolVar(&c.verbose, "v", false, "log connection-level diagnostics")
	fs.StringVar(&c.walDir, "wal-dir", "", "durable storage directory (empty = in-memory only)")
	fs.BoolVar(&c.fsync, "fsync", false, "fsync every WAL append before acknowledging the commit (with -wal-dir)")
	fs.DurationVar(&c.ckptIval, "checkpoint-interval", 5*time.Minute, "periodic checkpoint interval, 0 = only at shutdown (with -wal-dir)")
	return fs
}
