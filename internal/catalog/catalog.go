// Package catalog holds table metadata and data for the engine: schemas,
// keys, foreign keys, and the statistics the optimizer's cost modeler uses.
// Per the paper (§V-A), the cost modeler "does not require histograms:
// instead, it relies on cardinality estimates and information about keys and
// foreign keys when estimating the selectivity of join conditions."
package catalog

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// ForeignKey declares that Cols in this table reference RefCols of RefTable.
type ForeignKey struct {
	Cols     []string
	RefTable string
	RefCols  []string
}

// Table is a base relation: schema, data, and optimizer metadata.
//
// Rows is the row store and the only authoritative copy of the data. The
// numeric columns additionally have a typed-vector sidecar (IntVec,
// FloatVec) and the string columns dictionary codes (StrCodes) that
// base-table scans select over, and the table a row-size sidecar (RowBytes)
// for operators that buffer row ids. Each sidecar is built from Rows on its
// first use, cached on the Table, and dies with it — replacing a table
// through Catalog.Add therefore serves fresh sidecars, and a dropped catalog
// pins nothing. Rows must be complete before the first query and must not be
// mutated in place afterwards (that was already unsupported: compiled plans
// snapshot the slice); a sidecar built earlier would go stale. A Table must
// not be copied by value once used.
type Table struct {
	Name        string
	Schema      *types.Schema
	Rows        []types.Tuple
	PrimaryKey  []string
	ForeignKeys []ForeignKey

	// DistinctEst maps a column name to an estimated distinct-value count.
	// Populated by the generator; consulted by the cost modeler.
	DistinctEst map[string]int64

	vecsOnce sync.Once
	vecs     []colVec // one slot per column, sized once

	sizeOnce sync.Once
	rowFixed int32
	rowSizes []int32
}

// colVec is one column's lazily built sidecar: at most one of ints, floats
// and codes is non-nil, and all are nil for a column that has none. lo and hi
// bound ints. codes[i] is row i's index into dict; code 0 is reserved for
// NULL (dict[0] is a placeholder), so a kernel that decides codes can make
// NULL fail every predicate.
type colVec struct {
	once   sync.Once
	kind   types.Kind
	ints   []int64
	lo, hi int64
	floats []float64
	codes  []int32
	dict   []string
}

// noVec is the sidecar of a column the table does not have.
var noVec colVec

// vec returns the column's sidecar, building it on first use. The slots are
// allocated once per table, one per column of the first row, so a lookup is
// an index; each column builds under its own Once, so concurrent first uses
// of one column build it once and different columns build in parallel.
func (t *Table) vec(col int) *colVec {
	t.vecsOnce.Do(func() {
		if len(t.Rows) > 0 {
			t.vecs = make([]colVec, len(t.Rows[0]))
		}
	})
	if col < 0 || col >= len(t.vecs) {
		return &noVec
	}
	v := &t.vecs[col]
	v.once.Do(func() { v.build(t.Rows, col) })
	return v
}

// build fills the sidecar in one pass over the column: a vector when every
// row holds the same integer-backed kind (INT, DATE, BOOL), with its minimum
// and maximum, or every row a DECIMAL; dictionary codes when every row holds
// a string or NULL. A second kind anywhere in the column leaves it without.
func (v *colVec) build(rows []types.Tuple, col int) {
	switch k := rows[0][col].K; k {
	case types.KindInt, types.KindDate, types.KindBool:
		ints := make([]int64, len(rows))
		lo, hi := rows[0][col].I, rows[0][col].I
		for i, r := range rows {
			if r[col].K != k {
				return
			}
			x := r[col].I
			ints[i], lo, hi = x, min(lo, x), max(hi, x)
		}
		v.kind, v.ints, v.lo, v.hi = k, ints, lo, hi
	case types.KindFloat:
		floats := make([]float64, len(rows))
		for i, r := range rows {
			if r[col].K != k {
				return
			}
			floats[i] = r[col].F
		}
		v.kind, v.floats = k, floats
	case types.KindString, types.KindNull:
		codes, dict := make([]int32, len(rows)), []string{""}
		ids := make(map[string]int32)
		for i, r := range rows {
			switch x := r[col]; x.K {
			case types.KindString:
				c, ok := ids[x.S]
				if !ok {
					c = int32(len(dict))
					ids[x.S], dict = c, append(dict, x.S)
				}
				codes[i] = c
			case types.KindNull: // code 0
			default:
				return
			}
		}
		v.codes, v.dict = codes, dict
	}
}

// IntVec returns column col of every row as one contiguous vector, with the
// kind all rows share, when the column is integer-backed throughout; nil
// otherwise. The slice is shared and read-only.
func (t *Table) IntVec(col int) ([]int64, types.Kind) {
	v := t.vec(col)
	return v.ints, v.kind
}

// IntRange returns the least and the greatest value of column col when it has
// an IntVec (ok false otherwise), computed with the vector.
func (t *Table) IntRange(col int) (lo, hi int64, ok bool) {
	v := t.vec(col)
	return v.lo, v.hi, v.ints != nil
}

// FloatVec is IntVec for an all-DECIMAL column.
func (t *Table) FloatVec(col int) []float64 { return t.vec(col).floats }

// StrCodes returns column col's dictionary codes when every row holds a
// string or NULL (nil otherwise): codes[i] is row i's index into dict, 0 for
// NULL, and dict's strings are distinct. Both slices are shared and
// read-only.
func (t *Table) StrCodes(col int) (codes []int32, dict []string) {
	v := t.vec(col)
	return v.codes, v.dict
}

// RowBytes reports Tuple.MemSize of every row without reading it: fixed > 0
// when all rows share that size — a schema constant, for a schema with no
// string column (a value's size varies with its string payload only, and a
// non-string column is taken to hold none) — else sizes[i] is row i's, built
// by one pass over Rows on first use. The slice is shared and read-only.
func (t *Table) RowBytes() (fixed int32, sizes []int32) {
	t.sizeOnce.Do(func() {
		isStr := func(c types.Column) bool { return c.Kind == types.KindString }
		if t.Schema != nil && !slices.ContainsFunc(t.Schema.Cols, isStr) {
			t.rowFixed = int32(make(types.Tuple, len(t.Schema.Cols)).MemSize())
			return
		}
		t.rowSizes = make([]int32, len(t.Rows))
		for i, r := range t.Rows {
			t.rowSizes[i] = int32(r.MemSize())
		}
	})
	return t.rowFixed, t.rowSizes
}

// NumRows returns the table cardinality.
func (t *Table) NumRows() int64 { return int64(len(t.Rows)) }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Schema.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// IsKey reports whether the named column is (the whole of) the primary key,
// i.e. whether it is unique. Used for key/FK-based join selectivity.
func (t *Table) IsKey(col string) bool {
	return len(t.PrimaryKey) == 1 && strings.EqualFold(t.PrimaryKey[0], col)
}

// KnownDistinct returns the column's recorded number of distinct values —
// the generator's estimate, or the row count of a single-column key — and
// whether there is one.
func (t *Table) KnownDistinct(col string) (int64, bool) {
	if d, ok := t.DistinctEst[strings.ToLower(col)]; ok {
		return d, true
	}
	if t.IsKey(col) {
		return t.NumRows(), true
	}
	return 0, false
}

// Distinct returns the estimated number of distinct values in the column:
// the recorded count (KnownDistinct), else a heuristic fraction of the rows.
func (t *Table) Distinct(col string) int64 {
	if d, ok := t.KnownDistinct(col); ok {
		return d
	}
	if n := t.NumRows(); n > 0 {
		// Uniform fallback: assume one-tenth distinct, at least 1.
		d := n / 10
		if d < 1 {
			d = 1
		}
		return d
	}
	return 1
}

// SetDistinct records a distinct-count estimate for a column.
func (t *Table) SetDistinct(col string, n int64) {
	if t.DistinctEst == nil {
		t.DistinctEst = make(map[string]int64)
	}
	t.DistinctEst[strings.ToLower(col)] = n
}

// MemBytes returns the approximate memory footprint of the table data.
func (t *Table) MemBytes() int64 {
	var n int64
	for _, row := range t.Rows {
		n += int64(row.MemSize())
	}
	return n
}

// Catalog is a named collection of tables.
type Catalog struct {
	tables  map[string]*Table
	order   []string
	version atomic.Int64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table; it replaces any previous table of the same name
// and bumps the catalog version, invalidating plans compiled against the
// old contents.
func (c *Catalog) Add(t *Table) {
	key := strings.ToLower(t.Name)
	if _, exists := c.tables[key]; !exists {
		c.order = append(c.order, key)
	}
	c.tables[key] = t
	c.version.Add(1)
}

// Version is the catalog's mutation counter: it changes every time Add
// registers or replaces a table. Plan caches key compiled plans by it, so
// a stale plan (snapshotting a replaced table's rows or statistics) is
// never served after the catalog moves on. Mutating a *Table in place does
// not bump the version; replace it through Add.
func (c *Catalog) Version() int64 { return c.version.Load() }

// Table looks up a table by (case-insensitive) name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// Has reports whether the named table exists.
func (c *Catalog) Has(name string) bool {
	_, ok := c.tables[strings.ToLower(name)]
	return ok
}

// Names returns table names in registration order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}
