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
