package engine

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// TestPassThroughLeavesStoredRows: a plan whose Project outputs its
// input's columns in order yields the stored tuples themselves, so no
// statement may write into what it reads. INSERT … SELECT from the
// relation it inserts into, DELETE and UPDATE (whose matching rows come
// from an identity Project of the target) and a cursor held across them
// must leave every stored tuple as it was: each version of R reads back,
// through a cursor on the same identity Project, as a model that applies
// the writes, and the version the held cursor and the first snapshot saw
// is unchanged.
func TestPassThroughLeavesStoredRows(t *testing.T) {
	ctx := context.Background()
	r := relation.New("R", "A", "B")
	for i := range 50 {
		r.Add(i, fmt.Sprintf("s%d", i))
	}
	db := Open(r)
	scan, err := db.Prepare(LangSQL, "select R.A, R.B from R where R.A >= $1 and R.A < $2")
	if err != nil {
		t.Fatal(err)
	}
	if plan, err := scan.Explain(); err != nil || !strings.HasPrefix(plan, "Project [A, B]") {
		t.Fatalf("not an identity Project over R (%v):\n%s", err, plan)
	}
	read := func(rows *Rows) map[string]int {
		t.Helper()
		got := map[string]int{}
		rows.Each(func(row []value.Value) bool {
			got[fmt.Sprint(row)]++
			return true
		})
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	model := map[string]int{}
	for i := range 50 {
		model[fmt.Sprint([]value.Value{value.Int(int64(i)), value.Str(fmt.Sprintf("s%d", i))})]++
	}
	first := maps.Clone(model)
	held, err := scan.Query(ctx, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		src   string
		apply func(a int, b string, n int)
	}{
		{"insert into R select R.A, R.B from R where R.A >= 10 and R.A < 20", func(a int, b string, n int) {
			if a >= 10 && a < 20 {
				model[fmt.Sprint([]value.Value{value.Int(int64(a)), value.Str(b)})] += n
			}
		}},
		{"delete from R where R.A >= 15 and R.A < 25", func(a int, b string, n int) {
			if a >= 15 && a < 25 {
				delete(model, fmt.Sprint([]value.Value{value.Int(int64(a)), value.Str(b)}))
			}
		}},
		{"update R set B = 'u' where R.A >= 30 and R.A < 35", func(a int, b string, n int) {
			if a >= 30 && a < 35 {
				delete(model, fmt.Sprint([]value.Value{value.Int(int64(a)), value.Str(b)}))
				model[fmt.Sprint([]value.Value{value.Int(int64(a)), value.Str("u")})] += n
			}
		}},
	} {
		for i := range 50 {
			b := fmt.Sprintf("s%d", i)
			if n := model[fmt.Sprint([]value.Value{value.Int(int64(i)), value.Str(b)})]; n > 0 {
				w.apply(i, b, n)
			}
		}
		if _, err := db.Exec(ctx, LangSQL, w.src); err != nil {
			t.Fatalf("%s: %v", w.src, err)
		}
		rows, err := scan.Query(ctx, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if got := read(rows); !maps.Equal(got, model) {
			t.Fatalf("after %s: R reads\n%v\nwant\n%v", w.src, got, model)
		}
	}
	if got := read(held); !maps.Equal(got, first) {
		t.Fatalf("a cursor opened before the writes reads\n%v\nwant\n%v", got, first)
	}
	got := map[string]int{}
	r.Each(func(tup relation.Tuple, m int) { got[fmt.Sprint([]value.Value(tup))] += m })
	if !maps.Equal(got, first) {
		t.Fatalf("the first version of R holds\n%v\nwant\n%v", got, first)
	}
}
