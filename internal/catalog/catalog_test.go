package catalog

import (
	"testing"

	"repro/internal/types"
)

func sampleTable() *Table {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "id", Kind: types.KindInt},
		types.Column{Table: "t", Name: "grp", Kind: types.KindInt},
	)
	rows := make([]types.Tuple, 100)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 10))}
	}
	t := &Table{Name: "t", Schema: sch, Rows: rows, PrimaryKey: []string{"id"}}
	t.SetDistinct("grp", 10)
	return t
}

func TestCatalogAddLookup(t *testing.T) {
	c := New()
	c.Add(sampleTable())
	tbl, err := c.Table("T") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 100 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if !c.Has("t") || c.Has("missing") {
		t.Fatal("Has() wrong")
	}
	if _, err := c.Table("missing"); err == nil {
		t.Fatal("missing table must error")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("Names = %v", names)
	}
	// Replacing keeps single entry.
	c.Add(sampleTable())
	if len(c.Names()) != 1 {
		t.Fatal("replacement duplicated name")
	}
}

func TestTableMetadata(t *testing.T) {
	tbl := sampleTable()
	if tbl.ColumnIndex("grp") != 1 || tbl.ColumnIndex("GRP") != 1 {
		t.Fatal("ColumnIndex wrong")
	}
	if tbl.ColumnIndex("nope") != -1 {
		t.Fatal("missing column should be -1")
	}
	if !tbl.IsKey("id") || tbl.IsKey("grp") {
		t.Fatal("IsKey wrong")
	}
	if tbl.Distinct("id") != 100 {
		t.Fatalf("key distinct = %d", tbl.Distinct("id"))
	}
	if tbl.Distinct("grp") != 10 {
		t.Fatalf("recorded distinct = %d", tbl.Distinct("grp"))
	}
	// Fallback heuristic for unknown columns, which record no count.
	if d := tbl.Distinct("unknown"); d != 10 {
		t.Fatalf("fallback distinct = %d, want rows/10", d)
	}
	for col, want := range map[string]int64{"id": 100, "GRP": 10, "unknown": 0} {
		if d, ok := tbl.KnownDistinct(col); d != want || ok != (want > 0) {
			t.Fatalf("KnownDistinct(%s) = %d, %v; want %d", col, d, ok, want)
		}
	}
	if tbl.MemBytes() <= 0 {
		t.Fatal("MemBytes must be positive")
	}
}

func TestCompositeKeyIsNotSingleKey(t *testing.T) {
	tbl := sampleTable()
	tbl.PrimaryKey = []string{"id", "grp"}
	if tbl.IsKey("id") {
		t.Fatal("part of a composite key is not unique by itself")
	}
}

func TestDistinctOnEmptyTable(t *testing.T) {
	empty := &Table{Name: "e", Schema: sampleTable().Schema}
	if empty.Distinct("grp") != 1 {
		t.Fatal("empty table distinct should floor at 1")
	}
}
