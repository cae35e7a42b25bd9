package catalog

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

// mixedTable has one column of every vector outcome: all INT, all DATE, all
// DECIMAL, strings, an INT column with one NULL, and one mixing INT with
// DECIMAL.
func mixedTable(n int) *Table {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{
			types.Int(int64(i)), types.Date(int64(9000 + i)), types.Float(float64(i) / 4),
			types.Str("s"), types.Int(int64(i)), types.Int(int64(i)),
		}
	}
	rows[n/2][4] = types.Null()
	rows[n/3][5] = types.Float(2)
	return &Table{Name: "m", Rows: rows}
}

func TestColumnVectors(t *testing.T) {
	tbl := mixedTable(1000)
	ints, kind := tbl.IntVec(0)
	if kind != types.KindInt || len(ints) != 1000 || ints[999] != 999 {
		t.Fatalf("INT column: kind %v, %d values", kind, len(ints))
	}
	if dates, kind := tbl.IntVec(1); kind != types.KindDate || dates[1] != 9001 {
		t.Fatalf("DATE column: kind %v, %v", kind, dates[:2])
	}
	if fl := tbl.FloatVec(2); len(fl) != 1000 || fl[2] != 0.5 {
		t.Fatalf("DECIMAL column: %d values", len(fl))
	}
	if tbl.FloatVec(0) != nil {
		t.Fatal("an INT column has no float vector")
	}
	if v, _ := tbl.IntVec(2); v != nil {
		t.Fatal("a DECIMAL column has no int vector")
	}
	for _, col := range []int{3, 4, 5, 17, -1} {
		if v, _ := tbl.IntVec(col); v != nil || tbl.FloatVec(col) != nil {
			t.Fatalf("column %d (string / NULL / mixed kinds / out of range) must have no vector", col)
		}
	}
	if v, _ := (&Table{Name: "empty"}).IntVec(0); v != nil {
		t.Fatal("an empty table has no vectors")
	}
}

// TestColumnVectorBuiltOnce: 64 goroutines race for the first use of one
// column and all get the same backing array.
func TestColumnVectorBuiltOnce(t *testing.T) {
	tbl := mixedTable(50_000)
	var wg sync.WaitGroup
	first := make([]*int64, 64)
	for g := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _ := tbl.IntVec(g % 2) // two columns, built in parallel
			first[g] = &v[0]
		}()
	}
	wg.Wait()
	for g, p := range first {
		if p != first[g%2] {
			t.Fatalf("goroutine %d got its own copy of column %d", g, g%2)
		}
	}
}

// TestColumnVectorsFollowTheTable: vectors belong to the *Table — replacing
// a table through Add serves vectors of the new rows, and a catalog nobody
// references any more is collectable, vectors and all.
func TestColumnVectorsFollowTheTable(t *testing.T) {
	c := New()
	c.Add(mixedTable(100))
	old, _ := c.Table("m")
	if v, _ := old.IntVec(0); len(v) != 100 {
		t.Fatalf("old vector has %d values", len(v))
	}
	c.Add(mixedTable(300))
	cur, _ := c.Table("m")
	if v, _ := cur.IntVec(0); len(v) != 300 {
		t.Fatalf("replacement table serves a vector of %d values, want 300", len(v))
	}

	collected := make(chan struct{})
	func() {
		dropped := New()
		tbl := mixedTable(10_000)
		dropped.Add(tbl)
		tbl.IntVec(0)
		tbl.FloatVec(2)
		runtime.SetFinalizer(tbl, func(*Table) { close(collected) })
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("a dropped catalog's table (with built vectors) was never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestIntRange: an integer vector's range is its column's least and greatest
// value — negative values and a one-row column included — there is none
// for a DECIMAL, string, NULL-holding or mixed column, and a table replaced
// through Add serves the range of its new rows.
func TestIntRange(t *testing.T) {
	tbl := mixedTable(1000)
	for i := range tbl.Rows {
		tbl.Rows[i][0] = types.Int(int64(i*37%1001) - 700)
	}
	for col, want := range map[int]bool{0: true, 1: true, 2: false, 3: false, 4: false, 5: false, 9: false} {
		lo, hi, ok := tbl.IntRange(col)
		if ok != want {
			t.Fatalf("column %d: ok = %v, want %v", col, ok, want)
		}
		if !ok {
			continue
		}
		wlo, whi := tbl.Rows[0][col].I, tbl.Rows[0][col].I
		for _, r := range tbl.Rows {
			wlo, whi = min(wlo, r[col].I), max(whi, r[col].I)
		}
		if lo != wlo || hi != whi {
			t.Fatalf("column %d: range [%d, %d], a scan of the rows gives [%d, %d]", col, lo, hi, wlo, whi)
		}
	}
	one := &Table{Name: "one", Rows: []types.Tuple{{types.Int(-42)}}}
	if lo, hi, ok := one.IntRange(0); !ok || lo != -42 || hi != -42 {
		t.Fatalf("one-row column: [%d, %d] ok %v", lo, hi, ok)
	}

	c := New()
	c.Add(mixedTable(100))
	old, _ := c.Table("m")
	if _, hi, _ := old.IntRange(0); hi != 99 {
		t.Fatalf("old table's max %d", hi)
	}
	c.Add(mixedTable(300))
	cur, _ := c.Table("m")
	if lo, hi, ok := cur.IntRange(0); !ok || lo != 0 || hi != 299 {
		t.Fatalf("replacement table serves [%d, %d] ok %v, want [0, 299]", lo, hi, ok)
	}
}

// TestStrCodes: a column of strings and NULLs gets dictionary codes — each
// distinct string one code, in order of first appearance, NULL code 0, a
// leading NULL included — that decode back to the rows; a numeric column, a
// NULL-holding INT column, a column mixing a string with an INT and a column
// out of range get none; and one column's codes are built once, shared by
// every caller, whichever accessor asked first.
func TestStrCodes(t *testing.T) {
	rows := make([]types.Tuple, 500)
	for i := range rows {
		s := types.Str([]string{"b", "a", "", "ab"}[i%4])
		rows[i] = types.Tuple{s, s, types.Int(int64(i)), s}
		if i%7 == 0 {
			rows[i][1] = types.Null()
		}
	}
	rows[0][1] = types.Null()
	rows[250][3] = types.Int(1)
	tbl := &Table{Name: "s", Rows: rows}
	for _, col := range []int{0, 1} {
		codes, dict := tbl.StrCodes(col)
		if len(codes) != len(rows) || dict[0] != "" {
			t.Fatalf("column %d: %d codes, dict %q", col, len(codes), dict)
		}
		seen := map[string]bool{}
		for _, s := range dict[1:] {
			if seen[s] {
				t.Fatalf("column %d: %q has two codes in %q", col, s, dict)
			}
			seen[s] = true
		}
		for i, c := range codes {
			if v := rows[i][col]; v.IsNull() != (c == 0) || !v.IsNull() && dict[c] != v.S {
				t.Fatalf("column %d row %d: code %d (%q) for %v", col, i, c, dict[c], v)
			}
		}
		if v, _ := tbl.IntVec(col); v != nil || tbl.FloatVec(col) != nil {
			t.Fatalf("column %d: a string column has no numeric vector", col)
		}
	}
	if _, dict := tbl.StrCodes(0); len(dict) != 5 || dict[1] != "b" || dict[2] != "a" {
		t.Fatalf("codes follow first appearance: dict %q", dict)
	}
	for _, col := range []int{2, 3, 4, -1} {
		if codes, _ := tbl.StrCodes(col); codes != nil {
			t.Fatalf("column %d (INT / mixed / out of range) must have no codes", col)
		}
	}
	if codes, _ := mixedTable(10).StrCodes(4); codes != nil {
		t.Fatal("an INT column holding a NULL must have no codes")
	}
	var wg sync.WaitGroup
	first := make([]*int32, 16)
	fresh := &Table{Name: "s", Rows: rows}
	for g := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				fresh.IntVec(0)
			}
			codes, _ := fresh.StrCodes(0)
			first[g] = &codes[0]
		}()
	}
	wg.Wait()
	for g, p := range first {
		if p != first[0] {
			t.Fatalf("goroutine %d got its own codes", g)
		}
	}
}
