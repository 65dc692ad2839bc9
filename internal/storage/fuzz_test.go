package storage

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/relation"
)

// FuzzDecodeRecord feeds arbitrary bytes to the WAL record decoder, which
// replay runs on whatever a crash left at the log's tail: it must never
// panic, and a record it accepts must survive a round trip through
// encodeRecord unchanged. The corpus holds one record per OpKind.
func FuzzDecodeRecord(f *testing.F) {
	for _, op := range []relation.LogOp{
		{Kind: relation.OpCreate, Rel: "t", Attrs: []string{"a", "b"}},
		{Kind: relation.OpDrop, Rel: "t"},
		{Kind: relation.OpInsert, Rel: "t", Tuple: tup(1, "x"), Mult: 3},
		{Kind: relation.OpDelete, Rel: "t", Tuples: []relation.Tuple{tup(1, "x"), tup(nil, 2.5)}},
		{Kind: relation.OpPut, Rel: "u", Attrs: []string{"c"},
			Rows: []relation.Tuple{tup(true), tup("s")}, Mults: []int64{1, 7}},
	} {
		f.Add(encodeRecord(uint64(op.Kind), []relation.LogOp{op}))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		gen, ops, err := decodeRecord(b)
		if err != nil {
			return
		}
		gen2, ops2, err := decodeRecord(encodeRecord(gen, ops))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if gen2 != gen || len(ops2) != len(ops) {
			t.Fatalf("round trip: gen %d, %d ops; want gen %d, %d ops", gen2, len(ops2), gen, len(ops))
		}
		for i := range ops {
			if !sameOp(ops[i], ops2[i]) {
				t.Fatalf("op %d: round trip gave %+v, want %+v", i, ops2[i], ops[i])
			}
		}
	})
}

// sameOp reports whether two ops agree field by field; tuples agree when
// their values' ordered encodings do, the identity the codec stores.
func sameOp(a, b relation.LogOp) bool {
	return a.Kind == b.Kind && a.Rel == b.Rel && slices.Equal(a.Attrs, b.Attrs) &&
		sameTuple(a.Tuple, b.Tuple) && a.Mult == b.Mult &&
		slices.EqualFunc(a.Tuples, b.Tuples, sameTuple) &&
		slices.EqualFunc(a.Rows, b.Rows, sameTuple) && slices.Equal(a.Mults, b.Mults)
}

func sameTuple(a, b relation.Tuple) bool {
	return len(a) == len(b) && bytes.Equal(appendTuple(nil, a), appendTuple(nil, b))
}
