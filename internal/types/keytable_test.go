package types

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestKeyTableInsertLookup(t *testing.T) {
	kt := NewKeyTable(8)
	for i := 0; i < 100; i++ {
		tup := Tuple{Int(int64(i)), Str(fmt.Sprintf("v%d", i))}
		hash, key := keyOf(tup, []int{0, 1})
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
		hash, key := keyOf(tup, []int{0, 1})
		if id := kt.Lookup(hash, key); id != int32(i) {
			t.Fatalf("lookup %d: id=%d", i, id)
		}
		// Re-insert must return the existing id.
		id, added := kt.Insert(hash, key)
		if added || id != int32(i) {
			t.Fatalf("re-insert %d: id=%d added=%v", i, id, added)
		}
	}
	hash, key := keyOf(Tuple{Int(12345), Str("absent")}, []int{0, 1})
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
	const n = 10000
	for i := 0; i < n; i++ {
		hash, key := keyOf(Tuple{Int(int64(i))}, []int{0})
		if id, added := kt.Insert(hash, key); !added || id != int32(i) {
			t.Fatalf("insert %d: id=%d added=%v", i, id, added)
		}
	}
	if kt.Len() != n {
		t.Fatalf("Len = %d", kt.Len())
	}
	for i := 0; i < n; i++ {
		hash, key := keyOf(Tuple{Int(int64(i))}, []int{0})
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

// TestAppendKeyColsCrossKind pins the canonical key encoding across kinds:
// INTEGER 3 and DECIMAL 3.0 encode, and so hash, identically, and a key of
// integer-backed columns hashes from its words (HashIntKeys) as its bytes
// do, so a key lands in the same partition in either form.
func TestAppendKeyColsCrossKind(t *testing.T) {
	h1, k1 := keyOf(Tuple{Int(3), Str("x")}, []int{0, 1})
	hv, k2 := keyOf(Tuple{Float(3.0), Str("x")}, []int{0, 1})
	if h1 != hv || string(k1) != string(k2) {
		t.Fatal("INTEGER 3 and DECIMAL 3.0 must produce identical keys and hashes")
	}
	for _, tup := range []Tuple{{Int(-7)}, {Float(-7)}, {Int(3), Date(19000)}, {Float(3), Date(19000), Bool(true)}} {
		cols := make([]int, len(tup))
		w := make([]int64, len(tup))
		for i, v := range tup {
			cols[i] = i
			w[i], _ = v.AsInt()
		}
		if h, _ := keyOf(tup, cols); h != HashIntKeys(w) {
			t.Fatalf("%v: HashIntKeys of its words differs from Hash64 of its bytes", tup)
		}
	}
}

// keyOf is a key's hash and canonical bytes, as the executor computes them.
func keyOf(t Tuple, cols []int) (uint64, []byte) {
	key := t.AppendKeyCols(nil, cols)
	return Hash64(key, 0), key
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
	for i := 0; i < 1000; i++ {
		hash, key := keyOf(Tuple{Int(int64(i))}, []int{0})
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
		hash, key := keyOf(Tuple{Int(int64(i))}, []int{0})
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
	insert := func(i int) {
		hash, key := keyOf(Tuple{Int(int64(i)), Str(fmt.Sprintf("%04d", i))}, []int{0, 1})
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
		hash, key := keyOf(Tuple{Int(int64(i)), Str(fmt.Sprintf("%04d", i))}, []int{0, 1})
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

// denseTable returns a table holding the words 0..n-1 (inserted by bytes, so
// no range is declared yet) with slot room for one more key without a grow,
// and its MemSize: the figure the install rule compares 4 × span with.
func denseTable(n int) (*KeyTable, int) {
	kt := &KeyTable{}
	kt.Reserve(n + 1)
	for w := int64(0); w < int64(n); w++ {
		kt.Insert(HashIntKey(w), AppendIntKey(nil, w))
	}
	return kt, kt.MemSize()
}

// insertWord inserts one word through the word kernel and returns its id and
// whether it was added.
func insertWord(kt *KeyTable, w int64) (int32, bool) {
	ids, added := make([]int32, 1), make([]bool, 1)
	kt.InsertWords([]uint64{HashIntKey(w)}, []int64{w}, 1, ids, added)
	return ids[0], added[0]
}

// lookupWord looks one word up through the word kernel.
func lookupWord(kt *KeyTable, w int64) int32 {
	ids := make([]int32, 1)
	kt.LookupWords([]uint64{HashIntKey(w)}, []int64{w}, 1, ids)
	return ids[0]
}

// TestKeyTableDirectInstall pins the install rule and the range arithmetic:
// the direct index installs on a word insert when 4 × span ≤ MemSize — at a
// span of exactly MemSize/4 and not one over — never for a domain of 2^64 or
// 2^64 − 1 values (the span is computed unsigned, without overflow), and a
// word outside the domain, below a negative minimum or at MaxInt64, resolves
// through the slots.
func TestKeyTableDirectInstall(t *testing.T) {
	const n = 100
	_, mem := denseTable(n)
	for _, tc := range []struct {
		name   string
		lo, hi int64
		want   bool
	}{
		{"span at MemSize/4", 0, int64(mem/4) - 1, true},
		{"span one over", 0, int64(mem / 4), false},
		{"negative min", -int64(mem/4) + n, n - 1, true},
		{"whole int64", math.MinInt64, math.MaxInt64, false},
		{"int64 but one", math.MinInt64, math.MaxInt64 - 1, false},
		{"empty", 1, 0, false},
	} {
		kt, _ := denseTable(n)
		kt.Range(tc.lo, tc.hi)
		if id, added := insertWord(kt, 7); id != 7 || added {
			t.Fatalf("%s: word 7 resolved to %d added %v", tc.name, id, added)
		}
		if kt.Direct() != tc.want {
			t.Fatalf("%s: span [%d, %d] against MemSize %d: Direct() = %v, want %v", tc.name, tc.lo, tc.hi, mem, kt.Direct(), tc.want)
		}
		if tc.want && kt.MemSize() != mem+4*int(uint64(tc.hi)-uint64(tc.lo)+1) {
			t.Fatalf("%s: MemSize %d does not count the index over %d", tc.name, kt.MemSize(), mem)
		}
		// Words below, above and at the ends of the domain resolve as the
		// byte kernel (the slots alone) resolves them, before and after an
		// insert.
		for _, w := range []int64{tc.lo - 1, tc.lo, tc.hi, tc.hi + 1, math.MinInt64, math.MaxInt64, -1, n - 1} {
			h, b := HashIntKey(w), AppendIntKey(nil, w)
			want := kt.Lookup(h, b)
			if got := lookupWord(kt, w); got != want {
				t.Fatalf("%s: word %d resolved to %d, bytes to %d", tc.name, w, got, want)
			}
			id, added := insertWord(kt, w)
			if added != (want == -1) || want != -1 && id != want {
				t.Fatalf("%s: insert of word %d gave %d added %v; lookup had %d", tc.name, w, id, added, want)
			}
			if got := lookupWord(kt, w); got != id || kt.Lookup(h, b) != id {
				t.Fatalf("%s: word %d inserted as %d, then found as %d", tc.name, w, id, got)
			}
		}
	}
	// Range is declared once; the zero value drops it with the index.
	kt, _ := denseTable(n)
	kt.Range(0, n-1)
	kt.Range(0, math.MaxInt64/2)
	if insertWord(kt, 0); !kt.Direct() || kt.MemSize() != mem+4*n {
		t.Fatalf("the first range must hold: Direct %v, MemSize %d", kt.Direct(), kt.MemSize())
	}
	*kt = KeyTable{}
	if insertWord(kt, 0); kt.Direct() {
		t.Fatal("a table reset to its zero value kept its index")
	}
}

// TestKeyTableDirectMatchesHash runs random operation sequences against two
// tables, one with a declared range (which installs the direct index once it
// pays) and a hash-only twin, and requires the same ids and added flags
// from every call and the same Len, Key and Hash throughout: word inserts and
// lookups in and out of range, byte inserts and lookups (one at a time and
// batched) of INT-tagged keys and of an integral FLOAT's encoding, FLOAT- and
// STRING-tagged keys whose payload bytes decode into the range, and resets to
// the zero value.
func TestKeyTableDirectMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	installed := 0
	for seq := 0; seq < 60; seq++ {
		span := int64(64 + rng.Intn(3000))
		lo := []int64{0, -5000, 1 << 40, math.MaxInt64 - span + 1, math.MinInt64}[seq%5]
		hi := lo + span - 1 // MaxInt64 for the fourth domain
		var dense, hash KeyTable
		dense.Range(lo, hi)
		word := func() int64 {
			switch rng.Intn(10) {
			case 0:
				return lo - 1 - rng.Int63n(100) // out of range; wraps past MinInt64
			case 1:
				return hi + 1 + rng.Int63n(100)
			}
			return lo + rng.Int63n(span)
		}
		// key draws one byte key: INT-tagged, an integral FLOAT, or a FLOAT-
		// or STRING-tagged key with an in-range word's payload.
		key := func() []byte {
			w := word()
			b := AppendIntKey(nil, w)
			switch rng.Intn(5) {
			case 1:
				b = Float(float64(w)).AppendKey(nil) // INT-tagged where float64 holds w exactly
			case 2:
				b[0] = 0x02
			case 3:
				b[0], b[8] = 0x03, 0 // a 7-byte string's encoding
			}
			return b
		}
		check := func(op string, a, b []int32, aa, ba []bool) {
			t.Helper()
			for j := range a {
				if a[j] != b[j] || aa != nil && aa[j] != ba[j] {
					t.Fatalf("seq %d [%d, %d] %s lane %d: direct %d/%v, hash %d/%v", seq, lo, hi, op, j, a[j], aa != nil && aa[j], b[j], ba != nil && ba[j])
				}
			}
		}
		for step := 0; step < 400; step++ {
			n := 1 + rng.Intn(300)
			di, hi2 := make([]int32, n), make([]int32, n)
			da, ha := make([]bool, n), make([]bool, n)
			switch op := rng.Intn(20); {
			case op < 8: // word insert / lookup
				words, hs := make([]int64, n), make([]uint64, n)
				for j := range words {
					words[j] = word()
					hs[j] = HashIntKey(words[j])
				}
				if op < 5 {
					dense.InsertWords(hs, words, 1, di, da)
					hash.InsertWords(hs, words, 1, hi2, ha)
					check("InsertWords", di, hi2, da, ha)
				} else {
					dense.LookupWords(hs, words, 1, di)
					hash.LookupWords(hs, words, 1, hi2)
					check("LookupWords", di, hi2, nil, nil)
				}
			case op < 12: // byte batch insert / lookup
				var keys []byte
				offs := []int32{0}
				hs := make([]uint64, n)
				for j := range hs {
					b := key()
					hs[j] = Hash64(b, 0)
					keys = append(keys, b...)
					offs = append(offs, int32(len(keys)))
				}
				if op < 10 {
					dense.InsertBatch(hs, keys, offs, di, da)
					hash.InsertBatch(hs, keys, offs, hi2, ha)
					check("InsertBatch", di, hi2, da, ha)
				} else {
					dense.LookupBatch(hs, keys, offs, di)
					hash.LookupBatch(hs, keys, offs, hi2)
					check("LookupBatch", di, hi2, nil, nil)
				}
			case op < 19: // one byte key
				b := key()
				h := Hash64(b, 0)
				if op < 16 {
					d, dadd := dense.Insert(h, b)
					x, xadd := hash.Insert(h, b)
					check("Insert", []int32{d}, []int32{x}, []bool{dadd}, []bool{xadd})
				} else {
					check("Lookup", []int32{dense.Lookup(h, b)}, []int32{hash.Lookup(h, b)}, nil, nil)
				}
			default:
				if dense.Direct() {
					installed++
				}
				dense, hash = KeyTable{}, KeyTable{}
				dense.Range(lo, hi)
			}
			if dense.Len() != hash.Len() {
				t.Fatalf("seq %d: Len %d, hash twin %d", seq, dense.Len(), hash.Len())
			}
		}
		for id := int32(0); int(id) < dense.Len(); id++ {
			if string(dense.Key(id)) != string(hash.Key(id)) || dense.Hash(id) != hash.Hash(id) {
				t.Fatalf("seq %d: id %d is %x/%x, hash twin %x/%x", seq, id, dense.Key(id), dense.Hash(id), hash.Key(id), hash.Hash(id))
			}
		}
		if dense.Direct() {
			installed++
		}
	}
	if installed < 20 {
		t.Fatalf("only %d tables installed the direct index; the differential checks too little", installed)
	}
}

// TestKeyTableDirectAllocs: once warm, the dense word kernel allocates
// nothing, inserting present keys or looking words up.
func TestKeyTableDirectAllocs(t *testing.T) {
	const n = 4096
	words, hs := make([]int64, n), make([]uint64, n)
	for j := range words {
		words[j] = int64(j*7%n) - 100
		hs[j] = HashIntKey(words[j])
	}
	var kt KeyTable
	kt.Range(-100, n-101)
	ids, added := make([]int32, n), make([]bool, n)
	kt.InsertWords(hs, words, 1, ids, added)
	kt.InsertWords(hs, words, 1, ids, added)
	if !kt.Direct() {
		t.Fatal("a full dense table did not install its index")
	}
	if a := testing.AllocsPerRun(20, func() {
		kt.InsertWords(hs, words, 1, ids, added)
		kt.LookupWords(hs, words, 1, ids)
	}); a != 0 {
		t.Fatalf("%.1f allocs per warm dense batch, want 0", a)
	}
}

// TestKeyTableWordCollisions: two- and three-column word keys under
// caller-chosen hashes that collide — every key under one hash, or eight
// hashes for all keys — keep their identity by their words. Batches of word
// inserts, byte inserts and single byte inserts of the same keys, in a table
// that grows from its zero value, is re-placed by Reserve (growTo) and has
// its per-key arrays reserved mid-fill (ReserveKeys), give each key the id a
// map oracle assigns in first-insert order; every key is then found in both
// forms under that id, and a key never inserted under a colliding hash is
// found in neither.
func TestKeyTableWordCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	policies := map[string]func(w []int64) uint64{
		"one hash":     func([]int64) uint64 { return 0x5eed },
		"eight hashes": func(w []int64) uint64 { return HashIntKeys(w) & 7 },
	}
	for k := 2; k <= 3; k++ {
		for name, hashOf := range policies {
			label := fmt.Sprintf("k=%d %s", k, name)
			// 300 distinct keys over a narrow range, so keys differ in one
			// column only as often as in all; lanes draw them with repeats.
			var pool [][]int64
			seen := map[string]bool{}
			for len(pool) < 300 {
				w := make([]int64, k)
				for c := range w {
					w[c] = rng.Int63n(24) - 8
				}
				if enc := string(AppendIntKeys(nil, w)); !seen[enc] {
					seen[enc] = true
					pool = append(pool, w)
				}
			}
			var kt KeyTable
			oracle := map[string]int32{}
			check := func(form string, w []int64, id int32, added bool) {
				t.Helper()
				enc := string(AppendIntKeys(nil, w))
				want, ok := oracle[enc]
				if !ok {
					want = int32(len(oracle))
					oracle[enc] = want
				}
				if id != want || added == ok {
					t.Fatalf("%s %s: key %v got id %d added %v, want id %d added %v", label, form, w, id, added, want, !ok)
				}
			}
			for batch := 0; batch < 40; batch++ {
				switch batch {
				case 10:
					kt.ReserveKeys(2 * len(pool))
				case 20:
					kt.Reserve(4 * len(pool)) // re-places every id by its stored hash
				}
				n := 1 + rng.Intn(60)
				words := make([]int64, 0, n*k)
				hashes := make([]uint64, n)
				offs := make([]int32, n+1)
				var keys []byte
				for j := range hashes {
					w := pool[rng.Intn(len(pool))]
					words = append(words, w...)
					hashes[j] = hashOf(w)
					keys = AppendIntKeys(keys, w)
					offs[j+1] = int32(len(keys))
				}
				ids, added := make([]int32, n), make([]bool, n)
				switch form := []string{"words", "bytes", "single"}[batch%3]; form {
				case "words":
					kt.InsertWords(hashes, words, k, ids, added)
				case "bytes":
					kt.InsertBatch(hashes, keys, offs, ids, added)
				default:
					for j := range ids {
						ids[j], added[j] = kt.Insert(hashes[j], keys[offs[j]:offs[j+1]])
					}
				}
				for j := range ids {
					check(fmt.Sprintf("batch %d", batch), words[j*k:(j+1)*k], ids[j], added[j])
				}
			}
			if kt.Len() != len(oracle) {
				t.Fatalf("%s: %d keys, the oracle %d", label, kt.Len(), len(oracle))
			}
			// Every pool key, then one absent key per pool key (its last
			// word moved out of the drawn range) under the same hash.
			m := 2 * len(pool)
			words := make([]int64, 0, m*k)
			hashes := make([]uint64, m)
			offs := make([]int32, m+1)
			var keys []byte
			for j := range hashes {
				w := append([]int64(nil), pool[j%len(pool)]...)
				hashes[j] = hashOf(w)
				if j >= len(pool) {
					w[k-1] += 100
				}
				words = append(words, w...)
				keys = AppendIntKeys(keys, w)
				offs[j+1] = int32(len(keys))
			}
			wordIDs, byteIDs := make([]int32, m), make([]int32, m)
			kt.LookupWords(hashes, words, k, wordIDs)
			kt.LookupBatch(hashes, keys, offs, byteIDs)
			for j := range wordIDs {
				want, ok := oracle[string(keys[offs[j]:offs[j+1]])]
				if !ok {
					want = -1
				}
				if wordIDs[j] != want || byteIDs[j] != want {
					t.Fatalf("%s: lookup of %v: words %d, bytes %d, want %d", label, words[j*k:(j+1)*k], wordIDs[j], byteIDs[j], want)
				}
			}
		}
	}
}
