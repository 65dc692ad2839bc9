package storage

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
)

func tup(vals ...any) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Lift(v)
	}
	return t
}

func TestRecordCodecRoundTrip(t *testing.T) {
	ops := []relation.LogOp{
		{Kind: relation.OpCreate, Rel: "t", Attrs: []string{"a", "b"}},
		{Kind: relation.OpInsert, Rel: "t", Tuple: tup(1, "x"), Mult: 3},
		{Kind: relation.OpDelete, Rel: "t", Tuples: []relation.Tuple{tup(1, "x"), tup(nil, 2.5)}},
		{Kind: relation.OpDrop, Rel: "t"},
		{Kind: relation.OpPut, Rel: "u", Attrs: []string{"c"},
			Rows: []relation.Tuple{tup(true), tup("s")}, Mults: []int64{1, 7}},
	}
	payload := encodeRecord(42, ops)
	gen, got, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 42 || len(got) != len(ops) {
		t.Fatalf("gen=%d ops=%d", gen, len(got))
	}
	for i, op := range got {
		want := ops[i]
		if op.Kind != want.Kind || op.Rel != want.Rel {
			t.Fatalf("op %d: %+v vs %+v", i, op, want)
		}
	}
	if got[1].Mult != 3 || !got[1].Tuple.Equal(tup(1, "x")) {
		t.Fatalf("insert op mismatch: %+v", got[1])
	}
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-1.log")
	w, err := createWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for gen := uint64(2); gen <= 5; gen++ {
		ops := []relation.LogOp{{Kind: relation.OpInsert, Rel: "t", Tuple: tup(int(gen)), Mult: 1}}
		if _, err := w.append(encodeRecord(gen, ops)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	var gens []uint64
	records, _, truncated, err := walReplay(path, true, func(g uint64, ops []relation.LogOp) error {
		gens = append(gens, g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records != 4 || truncated {
		t.Fatalf("records=%d truncated=%v", records, truncated)
	}
	for i, g := range gens {
		if g != uint64(i+2) {
			t.Fatalf("gens = %v", gens)
		}
	}
}

// A torn tail (partial record) must be discarded; the prefix survives.
func TestWALTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-1.log")
	w, _ := createWAL(path, false)
	for gen := uint64(2); gen <= 4; gen++ {
		if _, err := w.append(encodeRecord(gen, []relation.LogOp{{Kind: relation.OpDrop, Rel: "x"}})); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	full, _ := os.ReadFile(path)
	// Cut mid-way through the last record.
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	records, _, truncated, err := walReplay(path, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if records != 2 || !truncated {
		t.Fatalf("records=%d truncated=%v, want 2 true", records, truncated)
	}
	// After truncation the file replays cleanly.
	records, _, truncated, err = walReplay(path, true, nil)
	if err != nil || records != 2 || truncated {
		t.Fatalf("post-truncate: records=%d truncated=%v err=%v", records, truncated, err)
	}
}

// A flipped CRC byte invalidates that record and everything after it.
func TestWALFlippedCRC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-1.log")
	w, _ := createWAL(path, false)
	var offsets []int64
	off := int64(len(walMagic))
	for gen := uint64(2); gen <= 5; gen++ {
		n, err := w.append(encodeRecord(gen, []relation.LogOp{{Kind: relation.OpDrop, Rel: "x"}}))
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, off)
		off += int64(n)
	}
	w.close()
	full, _ := os.ReadFile(path)
	full[offsets[2]+5] ^= 0xFF // corrupt record 3's CRC
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	records, _, truncated, err := walReplay(path, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if records != 2 || !truncated {
		t.Fatalf("records=%d truncated=%v, want 2 true", records, truncated)
	}
	if st, _ := os.Stat(path); st.Size() != offsets[2] {
		t.Fatalf("file size %d, want truncated to %d", st.Size(), offsets[2])
	}
}

func TestSegmentRoundTripAndCache(t *testing.T) {
	r := relation.New("t", "k", "v")
	for i := 0; i < 1000; i++ {
		r.Add(i, i*2)
	}
	r.Add(5, 10) // mult bump
	dir := t.TempDir()
	path := filepath.Join(dir, "t.seg")
	if err := writeSegment(path, r); err != nil {
		t.Fatal(err)
	}
	cache := NewBlockCache(0)
	seg, err := openSegment(path, 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	if seg.name != "t" || len(seg.attrs) != 2 {
		t.Fatalf("meta: %q %v", seg.name, seg.attrs)
	}
	if len(seg.offs) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(seg.offs))
	}

	got, err := seg.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(r) {
		t.Fatal("segment round trip diverged")
	}

	// Cache: re-reading the segment should hit every block.
	h0, m0 := cache.Stats()
	if _, err := seg.Relation(); err != nil {
		t.Fatal(err)
	}
	h1, m1 := cache.Stats()
	if h1-h0 != uint64(len(seg.offs)) || m1 != m0 {
		t.Fatalf("expected pure cache hits: hits %d->%d misses %d->%d", h0, h1, m0, m1)
	}
}

func TestSegmentEmptyRelation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.seg")
	if err := writeSegment(path, relation.New("empty", "a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	seg, err := openSegment(path, 1, NewBlockCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	r, err := seg.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "empty" || r.Arity() != 3 || r.Card() != 0 {
		t.Fatalf("empty segment: %s/%d/%d", r.Name(), r.Arity(), r.Card())
	}
}

// End-to-end: bootstrap a fresh dir, commit through the store, reopen
// and verify every committed generation is intact; then checkpoint,
// commit more, reopen again.
func TestManagerCommitRecoverCheckpoint(t *testing.T) {
	dir := t.TempDir()

	// Fresh open + bootstrap.
	m, rec, err := Open(dir, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty {
		t.Fatal("fresh dir not Empty")
	}
	seed := relation.New("t", "k", "v")
	seed.Add(0, "seed")
	st := relation.NewStore(seed)
	if err := m.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	commit := func(st *relation.Store, k int, v string) {
		ws := st.Begin()
		if err := ws.Insert("t", tup(k, v), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Commit(ws); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 10; i++ {
		commit(st, i, "w")
	}
	// Also exercise create/drop through the journal.
	ws := st.Begin()
	if err := ws.Create("u", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := ws.Insert("u", tup(99), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(ws); err != nil {
		t.Fatal(err)
	}
	wantGen := st.Gen()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replay only (no checkpoint beyond bootstrap).
	m2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Empty {
		t.Fatal("reopen found nothing")
	}
	if rec2.Gen != wantGen {
		t.Fatalf("recovered gen %d, want %d", rec2.Gen, wantGen)
	}
	st2 := relation.NewStoreAt(rec2.Gen, rec2.Rels...)
	m2.Attach(st2)
	if got := st2.Head().Relation("t").Card(); got != 11 {
		t.Fatalf("t has %d rows, want 11", got)
	}
	if got := st2.Head().Relation("u").Card(); got != 2 {
		t.Fatalf("u has %d rows, want 2", got)
	}

	// Checkpoint, commit more, close, reopen: replay starts after the
	// checkpoint.
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := m2.Stats()
	if s.Checkpoints != 1 || s.CheckpointGen != st2.Gen() {
		t.Fatalf("stats after checkpoint: %+v", s)
	}
	commit(st2, 100, "after-ckpt")
	wantGen2 := st2.Gen()
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	m3, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if rec3.Gen != wantGen2 {
		t.Fatalf("recovered gen %d, want %d", rec3.Gen, wantGen2)
	}
	if rec3.Stats.CheckpointGen == 0 || rec3.Stats.Records != 1 {
		t.Fatalf("expected checkpoint + exactly 1 replayed record, got %+v", rec3.Stats)
	}
	st3 := relation.NewStoreAt(rec3.Gen, rec3.Rels...)
	if got := st3.Head().Relation("t").Card(); got != 12 {
		t.Fatalf("t has %d rows, want 12", got)
	}
}

// A checkpoint with no intervening commits is a no-op.
func TestManagerCheckpointNoop(t *testing.T) {
	dir := t.TempDir()
	m, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := relation.NewStore(relation.New("t", "a"))
	if err := m.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	// Bootstrap wrote the initial checkpoint; an idle Checkpoint call
	// must not write another.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Checkpoints != 1 {
		t.Fatalf("no-op checkpoint wrote: %+v", s)
	}
}
