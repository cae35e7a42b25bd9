package types

import (
	"fmt"
	"math"
	"math/rand"
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

// TestKeyTableWordsMatchBytes: a key given as words (InsertWords,
// LookupWords) and the same key given as canonical bytes (InsertBatch,
// LookupBatch) are one key. For k = 1..3 columns of random values and the
// boundary words, with true hashes and with every key under one hash, keys
// inserted in one form are found in the other under the same ids, absent
// keys in neither, and Key(id) is the AppendIntKey encoding. A FLOAT-tagged
// twin of a key's payload is never a word match, in a table whose keys share
// one length and in one whose lengths are mixed (a string key added), where
// the word compare reads through the offsets.
func TestKeyTableWordsMatchBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	edges := []int64{math.MinInt64, -1, 0, math.MaxInt64}
	for k := 1; k <= 3; k++ {
		for _, collide := range []bool{false, true} {
			n := 3000 // several chunks of the batch kernels
			if collide {
				n = 400 // every probe walks one cluster
			}
			seen := map[string]bool{}
			var words []int64
			for len(seen) < n {
				w := make([]int64, k)
				for c := range w {
					if rng.Intn(8) == 0 {
						w[c] = edges[rng.Intn(len(edges))]
					} else {
						w[c] = rng.Int63n(1<<40) - 1<<39
					}
				}
				if enc := string(AppendIntKeys(nil, w)); !seen[enc] {
					seen[enc] = true
					words = append(words, w...)
				}
			}
			words = append(words, words...) // every key twice: lane j is key j % n
			m := len(words) / k
			hashes := make([]uint64, m)
			offs := make([]int32, m+1)
			var keys []byte
			for j := range hashes {
				w := words[j*k : (j+1)*k]
				hashes[j] = HashIntKeys(w)
				if collide {
					hashes[j] = 0x5eed
				}
				keys = AppendIntKeys(keys, w)
				offs[j+1] = int32(len(keys))
			}
			label := fmt.Sprintf("k=%d collide=%v", k, collide)
			insert := func(byWords bool) *KeyTable {
				kt := &KeyTable{}
				ids, added := make([]int32, m), make([]bool, m)
				if byWords {
					kt.InsertWords(hashes, words, k, ids, added)
				} else {
					kt.InsertBatch(hashes, keys, offs, ids, added)
				}
				for j := range ids {
					if want := int32(j % n); ids[j] != want || added[j] != (j < n) {
						t.Fatalf("%s words=%v: lane %d got id %d added %v, want %d %v", label, byWords, j, ids[j], added[j], want, j < n)
					}
				}
				for id := int32(0); int(id) < n; id++ {
					if got, want := kt.Key(id), keys[offs[id]:offs[id+1]]; string(got) != string(want) {
						t.Fatalf("%s words=%v: Key(%d) = %x, want %x", label, byWords, id, got, want)
					}
				}
				return kt
			}
			for _, byWords := range []bool{true, false} {
				kt := insert(byWords)
				byteIDs, wordIDs := make([]int32, m), make([]int32, m)
				kt.LookupBatch(hashes, keys, offs, byteIDs)
				kt.LookupWords(hashes, words, k, wordIDs)
				for j := range byteIDs {
					if want := int32(j % n); byteIDs[j] != want || wordIDs[j] != want {
						t.Fatalf("%s: inserted as words=%v, lane %d: byte lookup %d, word lookup %d, want %d", label, byWords, j, byteIDs[j], wordIDs[j], want)
					}
				}
				// An absent key: the first one with its last word one past.
				w := append([]int64(nil), words[:k]...)
				w[k-1]++
				if seen[string(AppendIntKeys(nil, w))] {
					continue
				}
				h := HashIntKeys(w)
				if collide {
					h = 0x5eed
				}
				if id := kt.Lookup(h, AppendIntKeys(nil, w)); id != -1 {
					t.Fatalf("%s: absent key found by bytes as %d", label, id)
				}
				if kt.LookupWords([]uint64{h}, w, k, wordIDs[:1]); wordIDs[0] != -1 {
					t.Fatalf("%s: absent key found by words as %d", label, wordIDs[0])
				}
			}
			// Key 0 stored as a FLOAT with the same payload bytes (the
			// integer-tagged key itself absent), beside keys 1..n-1, all
			// under the colliding hash: a word lookup of key 0 must miss,
			// with the keys of one width and again after a string key
			// made their lengths mixed, and a word insert must add it.
			if !collide {
				continue
			}
			kt := &KeyTable{}
			fl := append([]byte(nil), keys[offs[0]:offs[1]]...)
			fl[0] = 0x02
			kt.Insert(0x5eed, fl)
			for j := 1; j < n; j++ {
				kt.Insert(0x5eed, keys[offs[j]:offs[j+1]])
			}
			ids, added := make([]int32, n), make([]bool, n)
			for _, mixed := range []bool{false, true} {
				if mixed {
					kt.Insert(0x5eed, Str("x").AppendKey(nil))
				}
				if kt.LookupWords(hashes[:n], words[:n*k], k, ids); ids[0] != -1 || ids[1] != 1 || int(ids[n-1]) != n-1 {
					t.Fatalf("%s mixed=%v: word lookups found %d, %d, %d; want -1 (only a FLOAT key has its payload), 1, %d",
						label, mixed, ids[0], ids[1], ids[n-1], n-1)
				}
			}
			if kt.InsertWords(hashes[:1], words[:k], k, ids, added); !added[0] || int(ids[0]) != n+1 {
				t.Fatalf("%s: word insert beside its FLOAT twin gave id %d added %v, want a new id %d", label, ids[0], added[0], n+1)
			}
		}
	}
}
