package client

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/server"
	"repro/internal/value"
)

// rowsPayload encodes a Rows payload the way the server lays it out.
func rowsPayload(cursorID uint32, done bool, ncols, nrows uint32, vals ...value.Value) []byte {
	var e server.Enc
	e.U32(cursorID)
	if done {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.U32(ncols)
	e.U32(nrows)
	for _, v := range vals {
		e.Val(v)
	}
	return e.Bytes()
}

// manyRows is a done Rows payload of n rows [i, "s<i>"].
func manyRows(n int) []byte {
	vals := make([]value.Value, 0, 2*n)
	for i := range n {
		vals = append(vals, value.Int(int64(i)), value.Str(fmt.Sprintf("s%d", i)))
	}
	return rowsPayload(1, true, 2, uint32(n), vals...)
}

// checkBulkDecode fails unless Dec.Vals, which decodeBatch decodes a
// batch's values with, and a loop of Dec.Val over the same values accept
// and reject payload alike, with one error, and yield equal values up to
// where they stop.
func checkBulkDecode(t *testing.T, payload []byte) {
	t.Helper()
	const header = 13 // u32 cursor, u8 done, u32 ncols, u32 nrows
	if len(payload) < header {
		return
	}
	h := server.NewDec(payload[5:header])
	n := min(uint64(h.U32())*uint64(h.U32()), uint64(len(payload)))
	one, bulk := server.NewDec(payload[header:]), server.NewDec(payload[header:])
	byOne, byBulk := make([]value.Value, n), make([]value.Value, n)
	for i := range byOne {
		if byOne[i] = one.Val(); one.Err() != nil {
			byOne[i] = value.Value{}
			break
		}
	}
	bulk.Vals(byBulk)
	errOne, errBulk := one.Done(), bulk.Done()
	if fmt.Sprint(errOne) != fmt.Sprint(errBulk) {
		t.Fatalf("a Val per value: %v; Vals: %v", errOne, errBulk)
	}
	for i := range byOne {
		a, b := byOne[i], byBulk[i]
		if a.Kind() != b.Kind() || !a.IsNull() && !a.Equal(b) {
			t.Fatalf("value %d: %v (%v) by Val, %v (%v) by Vals", i, a, a.Kind(), b, b.Kind())
		}
	}
}

// FuzzClientRows feeds arbitrary Rows payloads to the client's batch
// decoder, the codec a server (or anything posing as one) controls. Each
// payload decodes into rows or an error: never a panic, and never a
// value array larger than the payload, since every value costs at least
// one byte on the wire.
func FuzzClientRows(f *testing.F) {
	f.Add(rowsPayload(1, true, 2, 2, value.Int(1), value.Str("a"), value.Null(), value.Float(2.5)))
	f.Add(rowsPayload(7, false, 1, 3, value.Bool(true), value.Int(-1), value.Str("")))
	f.Add(rowsPayload(1, true, 0, 0))
	f.Add(rowsPayload(1, true, 3, 0))
	f.Add(rowsPayload(1, false, 0xFFFF, 0xFFFF))                  // counts far beyond the payload
	f.Add(rowsPayload(1, true, 1, 200))                           // 200 rows in 13 bytes
	f.Add(rowsPayload(1, true, 1, 2, value.Int(1)))               // one value short
	f.Add(rowsPayload(1, true, 1, 1, value.Int(1), value.Int(2))) // trailing bytes
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0})                            // truncated header
	f.Add(manyRows(5000))                                         // what a batch ended by bytes alone carries
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		// What a rejected payload allocated is invisible in the result, so
		// the bound is also checked on the bytes decoding allocated: the
		// array (≤ one 16-byte value per payload byte), the strings copied
		// out of the payload and an error, which with size-class rounding
		// stay within 8 bytes more per payload byte (a 1-byte string takes
		// 6 payload bytes and allocates at most 8). The counter is
		// process-wide, so the least of three decodes is the one compared.
		var b batch
		var err error
		grew := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b, err = decodeBatch(payload)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(24*len(payload) + 4096); grew > limit {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes (limit %d)", len(payload), grew, limit)
		}
		checkBulkDecode(t, payload)
		if err != nil {
			return
		}
		if cap(b.vals) > len(payload) {
			t.Fatalf("%d-byte payload decoded into an array of %d values", len(payload), cap(b.vals))
		}
		if len(b.vals) != b.ncols*b.nrows {
			t.Fatalf("%d values for %d rows of %d columns", len(b.vals), b.nrows, b.ncols)
		}
		if b.ncols > 0 {
			for i := 0; i < b.nrows; i++ {
				if row := b.row(i); len(row) != b.ncols || cap(row) != b.ncols {
					t.Fatalf("row %d has len %d cap %d, want %d", i, len(row), cap(row), b.ncols)
				}
			}
		}
	})
}

// BenchmarkDecodeBatch decodes one Rows payload of 10 000 rows of two
// ints, what a 10 000-row scan of R(A, B) sends as one batch.
func BenchmarkDecodeBatch(b *testing.B) {
	vals := make([]value.Value, 0, 20_000)
	for i := range 10_000 {
		vals = append(vals, value.Int(int64(i)), value.Int(int64(3*i)))
	}
	payload := rowsPayload(1, true, 2, 10_000, vals...)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := decodeBatch(payload); err != nil {
			b.Fatal(err)
		}
	}
}
