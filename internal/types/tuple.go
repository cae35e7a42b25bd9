package types

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Tuple is one row: a flat slice of values positionally aligned with a
// Schema.
type Tuple []Value

// Clone returns a deep-enough copy of the tuple (values are value types, so
// a slice copy suffices; strings share backing storage, which is safe
// because values are immutable once produced).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// MemSize returns the approximate in-memory footprint of the tuple in
// bytes, including the slice header.
func (t Tuple) MemSize() int {
	n := 24 // slice header
	for _, v := range t {
		n += v.MemSize()
	}
	return n
}

// HasNull reports whether any of the listed columns is NULL: such a key
// equals nothing under SQL equality, so a join never matches it.
func (t Tuple) HasNull(cols []int) bool {
	for _, c := range cols {
		if t[c].K == KindNull {
			return true
		}
	}
	return false
}

// Key encodes the listed column positions into a canonical hash key. It is
// the convenience form of AppendKeyCols for cold paths; the executor's hot
// paths use AppendKeyCols (via Hasher) to avoid the string allocation.
func (t Tuple) Key(cols []int) string {
	return string(t.AppendKeyCols(nil, cols))
}

// AppendKeyCols appends the canonical encoding of the listed columns to dst
// and returns it; an allocation-light variant of Key for hot paths. The
// integer-backed kinds — the dominant key shape — encode directly here
// rather than through the AppendKey call (which is too large to inline and
// showed up as pure call overhead in batch-probe profiles); the encoding is
// identical.
func (t Tuple) AppendKeyCols(dst []byte, cols []int) []byte {
	for _, c := range cols {
		if v := t[c]; v.K == KindInt || v.K == KindDate || v.K == KindBool {
			dst = AppendIntKey(dst, v.I)
			continue
		}
		dst = t[c].AppendKey(dst)
	}
	return dst
}

// AppendIntKey appends the canonical key encoding of an integer-backed
// value (the 0x01 tag followed by the big-endian payload). It is the
// inlinable fast path every integer key encode shares — a router's, and a
// KeyTable storing a key it was given as words; Value.AppendKey produces
// the identical bytes. The in-capacity case is two plain stores — the key
// kernels run it once per key, where a 9-byte append's memmove call
// dominated the encode in profiles.
func AppendIntKey(dst []byte, v int64) []byte {
	n := len(dst)
	if cap(dst)-n >= 9 {
		dst = dst[:n+9]
		dst[n] = 0x01
		binary.BigEndian.PutUint64(dst[n+1:], uint64(v))
		return dst
	}
	return appendIntKeyGrow(dst, v)
}

// AppendIntKeys appends the canonical encoding of a key of integer-backed
// columns given as words, one per column.
func AppendIntKeys(dst []byte, w []int64) []byte {
	for _, v := range w {
		dst = AppendIntKey(dst, v)
	}
	return dst
}

func appendIntKeyGrow(dst []byte, v int64) []byte {
	var tmp [9]byte
	tmp[0] = 0x01
	binary.BigEndian.PutUint64(tmp[1:], uint64(v))
	return append(dst, tmp[:]...)
}

// Concat returns a new tuple that is the concatenation of a and b, used by
// joins to build output rows.
func Concat(a, b Tuple) Tuple {
	out := make(Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// String renders the tuple as a parenthesized value list.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Column describes one attribute of a schema: the table alias that
// produced it (empty for derived columns), its name, and its type.
type Column struct {
	Table string // qualifier (table alias), may be empty
	Name  string // column name or alias
	Kind  Kind
}

// QualifiedName returns "table.name" or just "name" when unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns describing the tuples an operator
// produces.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// Concat returns the schema of a join output: a's columns followed by b's.
func (s *Schema) Concat(other *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(other.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, other.Cols...)
	return &Schema{Cols: cols}
}

// Resolve locates a possibly-qualified column reference. It returns the
// column position, or an error when the reference is ambiguous or missing.
func (s *Schema) Resolve(table, name string) (int, error) {
	found := -1
	for i, c := range s.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("types: ambiguous column reference %q", Column{Table: table, Name: name}.QualifiedName())
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("types: unknown column %q in schema %s", Column{Table: table, Name: name}.QualifiedName(), s)
	}
	return found, nil
}

// IndexOf returns the position of the exact (table, name) pair, or -1.
func (s *Schema) IndexOf(table, name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) && strings.EqualFold(c.Table, table) {
			return i
		}
	}
	return -1
}

// String renders the schema for error messages.
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.QualifiedName()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Project returns a schema consisting of the listed columns.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Cols[j]
	}
	return &Schema{Cols: cols}
}
