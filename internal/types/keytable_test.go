package types

import (
	"fmt"
	"testing"
)

func TestKeyTableInsertLookup(t *testing.T) {
	kt := NewKeyTable(8)
	var h Hasher
	for i := 0; i < 100; i++ {
		tup := Tuple{Int(int64(i)), Str(fmt.Sprintf("v%d", i))}
		hash, key := h.KeyCols(tup, []int{0, 1})
		id, added := kt.Insert(hash, key)
		if !added || id != int32(i) {
			t.Fatalf("insert %d: id=%d added=%v", i, id, added)
		}
	}
	if kt.Len() != 100 {
		t.Fatalf("Len = %d", kt.Len())
	}
	for i := 0; i < 100; i++ {
		tup := Tuple{Int(int64(i)), Str(fmt.Sprintf("v%d", i))}
		hash, key := h.KeyCols(tup, []int{0, 1})
		if id := kt.Lookup(hash, key); id != int32(i) {
			t.Fatalf("lookup %d: id=%d", i, id)
		}
		// Re-insert must return the existing id.
		id, added := kt.Insert(hash, key)
		if added || id != int32(i) {
			t.Fatalf("re-insert %d: id=%d added=%v", i, id, added)
		}
	}
	hash, key := h.KeyCols(Tuple{Int(12345), Str("absent")}, []int{0, 1})
	if id := kt.Lookup(hash, key); id != -1 {
		t.Fatalf("absent key found: id=%d", id)
	}
}

func TestKeyTableZeroValue(t *testing.T) {
	var kt KeyTable
	if id := kt.Lookup(7, []byte("x")); id != -1 {
		t.Fatalf("zero-value lookup = %d", id)
	}
	id, added := kt.Insert(7, []byte("x"))
	if !added || id != 0 {
		t.Fatalf("zero-value insert: id=%d added=%v", id, added)
	}
	if kt.Lookup(7, []byte("x")) != 0 {
		t.Fatal("zero-value table lost its key")
	}
}

// TestKeyTableCollisions feeds many distinct keys under the SAME hash: the
// table must fall back to inline key-byte verification and keep every key
// addressable, never trusting the hash alone.
func TestKeyTableCollisions(t *testing.T) {
	kt := NewKeyTable(4)
	const n = 200
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("collide-%d", i))
		id, added := kt.Insert(0xdeadbeef, key)
		if !added || id != int32(i) {
			t.Fatalf("collision insert %d: id=%d added=%v", i, id, added)
		}
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("collide-%d", i))
		if id := kt.Lookup(0xdeadbeef, key); id != int32(i) {
			t.Fatalf("collision lookup %d: id=%d", i, id)
		}
	}
	if kt.Lookup(0xdeadbeef, []byte("collide-absent")) != -1 {
		t.Fatal("collision lookup invented a key")
	}
	// A different hash with identical bytes is a different key.
	if kt.Lookup(0xfeedface, []byte("collide-0")) != -1 {
		t.Fatal("hash must participate in identity")
	}
}

// TestKeyTableGrow crosses several doublings and verifies every id and key
// survives rehashing.
func TestKeyTableGrow(t *testing.T) {
	kt := NewKeyTable(0) // start at minimum capacity
	var h Hasher
	const n = 10000
	for i := 0; i < n; i++ {
		hash, key := h.KeyCols(Tuple{Int(int64(i))}, []int{0})
		if id, added := kt.Insert(hash, key); !added || id != int32(i) {
			t.Fatalf("insert %d: id=%d added=%v", i, id, added)
		}
	}
	if kt.Len() != n {
		t.Fatalf("Len = %d", kt.Len())
	}
	for i := 0; i < n; i++ {
		hash, key := h.KeyCols(Tuple{Int(int64(i))}, []int{0})
		if id := kt.Lookup(hash, key); id != int32(i) {
			t.Fatalf("post-grow lookup %d: id=%d", i, id)
		}
		want := Tuple{Int(int64(i))}.Key([]int{0})
		if got := string(kt.Key(int32(i))); got != want {
			t.Fatalf("key bytes corrupted for id %d", i)
		}
	}
	if kt.MemSize() <= 0 {
		t.Fatal("MemSize must be positive")
	}
}

func TestHash64Deterministic(t *testing.T) {
	seen := map[uint64]int{}
	for _, n := range []int{0, 1, 3, 4, 8, 15, 16, 17, 32, 48, 49, 100, 1000} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		h1, h2 := Hash64(b, 0), Hash64(b, 0)
		if h1 != h2 {
			t.Fatalf("len %d: nondeterministic", n)
		}
		if n > 0 && Hash64(b, 1) == h1 {
			t.Fatalf("len %d: seed ignored", n)
		}
		if prev, dup := seen[h1]; dup {
			t.Fatalf("lengths %d and %d collide", prev, n)
		}
		seen[h1] = n
	}
	// Different inputs should (virtually always) hash differently.
	a := Hash64([]byte("hello"), 0)
	b := Hash64([]byte("hellp"), 0)
	if a == b {
		t.Fatal("trivial collision")
	}
	if Mix64(a, 0) == Mix64(a, 1) {
		t.Fatal("Mix64 must depend on both operands")
	}
}

// TestHasherMatchesAppendKeyCols pins the Hasher to the canonical encoding:
// equal tuples hash equal, cross-kind numeric equality is preserved.
func TestHasherMatchesAppendKeyCols(t *testing.T) {
	var h Hasher
	h1, k1 := h.KeyCols(Tuple{Int(3), Str("x")}, []int{0, 1})
	var h2 Hasher
	hv, k2 := h2.KeyCols(Tuple{Float(3.0), Str("x")}, []int{0, 1})
	if h1 != hv || string(k1) != string(k2) {
		t.Fatal("INTEGER 3 and DECIMAL 3.0 must produce identical keys and hashes")
	}
	want := Hash64(Tuple{Int(3), Str("x")}.AppendKeyCols(nil, []int{0, 1}), 0)
	if h1 != want {
		t.Fatal("Hasher must hash the canonical AppendKeyCols encoding with seed 0")
	}
}

// TestKeyTableReserve pins the pre-sizing hint: a reserved table holds the
// hinted key count without re-growing its slot array, a hint on a populated
// table grows it in one step and keeps every key, a hint the slots already
// cover is a no-op, and reserved tables answer identically to lazy ones.
func TestKeyTableReserve(t *testing.T) {
	var kt KeyTable
	kt.Reserve(1000)
	slots := len(kt.slots)
	if slots < 2000 {
		t.Fatalf("reserve(1000) sized %d slots, want >= 2000 (load factor headroom)", slots)
	}
	var h Hasher
	for i := 0; i < 1000; i++ {
		hash, key := h.KeyCols(Tuple{Int(int64(i))}, []int{0})
		if _, added := kt.Insert(hash, key); !added {
			t.Fatalf("key %d not added", i)
		}
	}
	if len(kt.slots) != slots {
		t.Fatalf("reserved table grew from %d to %d slots", slots, len(kt.slots))
	}
	kt.Reserve(500)
	if len(kt.slots) != slots {
		t.Fatal("a hint the slots already cover must be a no-op")
	}
	// Reserve on a populated table re-places its keys in the bigger array.
	kt.Reserve(1 << 12)
	if len(kt.slots) < 2<<12 || kt.Len() != 1000 {
		t.Fatalf("Reserve(4096) on a populated table: %d slots, %d keys", len(kt.slots), kt.Len())
	}
	for i := 0; i < 1000; i++ {
		hash, key := h.KeyCols(Tuple{Int(int64(i))}, []int{0})
		if kt.Lookup(hash, key) < 0 {
			t.Fatalf("key %d lost", i)
		}
	}
	// Non-positive hints leave the lazy defaults.
	var lazy KeyTable
	lazy.Reserve(0)
	lazy.Reserve(-5)
	if len(lazy.slots) != 0 {
		t.Fatal("non-positive hints must leave the zero value untouched")
	}
}

// TestKeyTableReserveKeys: a table whose per-key arrays were reserved mid-fill
// takes the hinted keys without reallocating them, answers every key like a
// lazily grown table, and charges MemSize by length exactly as that table
// does.
func TestKeyTableReserveKeys(t *testing.T) {
	var kt, lazy KeyTable
	var h Hasher
	insert := func(i int) {
		hash, key := h.KeyCols(Tuple{Int(int64(i)), Str(fmt.Sprintf("%04d", i))}, []int{0, 1})
		kt.Insert(hash, key)
		lazy.Insert(hash, key)
	}
	for i := 0; i < 100; i++ {
		insert(i)
	}
	kt.ReserveKeys(5000)
	hashes, offs, keys := &kt.hashes[:1][0], &kt.offs[:1][0], &kt.keys[:1][0]
	for i := 100; i < 5000; i++ {
		insert(i)
	}
	if &kt.hashes[0] != hashes || &kt.offs[0] != offs || &kt.keys[0] != keys {
		t.Fatal("per-key arrays reallocated below the reserved key count")
	}
	if kt.MemSize()-len(kt.slots)*4 != lazy.MemSize()-len(lazy.slots)*4 {
		t.Fatalf("MemSize past the slots: reserved %d, lazy %d",
			kt.MemSize()-len(kt.slots)*4, lazy.MemSize()-len(lazy.slots)*4)
	}
	for i := 0; i < 5000; i++ {
		hash, key := h.KeyCols(Tuple{Int(int64(i)), Str(fmt.Sprintf("%04d", i))}, []int{0, 1})
		if id := kt.Lookup(hash, key); id < 0 || string(kt.Key(id)) != string(lazy.Key(lazy.Lookup(hash, key))) {
			t.Fatalf("key %d: id %d", i, id)
		}
	}
}
