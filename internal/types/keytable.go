package types

import "encoding/binary"

// KeyTable is the open-addressing hash table behind the executor's join,
// aggregation, and distinct state. It maps (hash, canonical key bytes)
// pairs to dense int32 ids — 0, 1, 2, … in insertion order — which callers
// use to index their own parallel state arrays (tuple chains, per-aggregate
// group columns). Compared to a map[string]T it avoids the per-tuple
// string(key) allocation entirely: key bytes are copied once into a shared
// arena, probes verify candidates by comparing hashes first and key bytes
// inline second (hash collisions are tolerated, not trusted), and lookups
// never allocate.
//
// Keys arrive in one of two forms, and the table stores one: canonical
// bytes (Insert, InsertBatch, …) or, for keys of integer-backed columns,
// one int64 word per column (InsertWords, LookupWords), compared in place
// against the stored bytes and appended as their canonical encoding. Either
// form finds a key the other inserted. While every key has the same length
// (a table filled from words always does), key id starts at id × that
// length, so a word compare reads no offsets; a one-column one reads no hash
// either, while a multi-column candidate is rejected by its hash first.
//
// A table of one-column integer keys can also hold a direct index over the
// column's [min, max] (Range): dir[w−min] is key w's id+1, 0 when absent, so
// a word resolves with one load, no slot probe and no key compare. The index
// sits in front of the slots, which stay authoritative: every new key is
// entered in both, and a byte key enters dir only when it is the 9-byte
// INT-tagged encoding of an in-range word (a FLOAT- or STRING-tagged key
// whose payload happens to decode into range never does). The byte kernels,
// Key, Hash, Len and spill records therefore see the same table with or
// without it. The word kernel installs it once its 4 bytes per word of the
// span are no more than the table's own MemSize, with slots for the batch
// being inserted, so a table pruned to a few keys never gets one; MemSize
// counts it.
//
// The zero value is an empty, ready-to-use table. KeyTable is not
// concurrency-safe; the executor serializes access per operator side.
type KeyTable struct {
	slots []int32 // 1-based id per slot, 0 = empty; len is a power of two
	mask  uint64

	hashes []uint64 // per id: the key's Hash64
	// offs[id]:offs[id+1] bound key id in keys: ids are dense and the arena is
	// append-only, so one sentinel (offs[0] = 0, written by the first growTo)
	// closes the last key.
	offs []uint32
	keys []byte // arena of all key bytes, appended on insert
	// width is the length of every key while all have one (with Len() > 0),
	// else -1.
	width int32

	// The direct index (Range): lo is the domain's minimum, span its size
	// (0: no domain declared, or one of 2^64 values), dir nil until installed.
	lo   int64
	span uint64
	dir  []int32
}

// NewKeyTable returns a table pre-sized for about hint distinct keys.
func NewKeyTable(hint int) *KeyTable {
	kt := &KeyTable{}
	kt.Reserve(hint)
	if kt.slots == nil {
		kt.Reserve(1)
	}
	return kt
}

// Reserve sizes the slot array for about hint distinct keys (an optimizer
// cardinality estimate, possibly divided across partitions) in one step,
// avoiding the doubling-growth rehashes of the insert path; keys already in
// the table are re-placed once. It is a no-op when the slots already cover
// the hint; hint <= 0 leaves the lazy defaults.
func (kt *KeyTable) Reserve(hint int) {
	if hint <= 0 {
		return
	}
	n := 16
	for n < hint*2 {
		n <<= 1
	}
	if n > len(kt.slots) {
		kt.growTo(n)
	}
}

// ReserveKeys is Reserve plus the per-key arrays: hashes, offsets and the key
// arena get room for hint keys in one allocation each instead of growing by
// doubling, the arena at the mean key length so far (9 bytes, one integer
// key, when empty). For a table known to be headed for about hint keys; the
// reserved capacity is not charged by MemSize until keys fill it.
func (kt *KeyTable) ReserveKeys(hint int) {
	kt.Reserve(hint)
	if hint <= cap(kt.hashes) {
		return
	}
	per := 9
	if n := len(kt.hashes); n > 0 {
		per = (len(kt.keys) + n - 1) / n
	}
	kt.hashes = append(make([]uint64, 0, hint), kt.hashes...)
	kt.offs = append(make([]uint32, 0, hint+1), kt.offs...)
	kt.keys = append(make([]byte, 0, hint*per), kt.keys...)
}

// Len returns the number of distinct keys inserted.
func (kt *KeyTable) Len() int { return len(kt.hashes) }

// Key returns the canonical key bytes of an id. The slice aliases the
// table's arena and must not be modified.
func (kt *KeyTable) Key(id int32) []byte {
	return kt.keys[kt.offs[id]:kt.offs[id+1]]
}

// Hash returns the Hash64 the id was inserted under. Together with Key it
// lets a caller walk ids 0..Len() and re-serialize every entry — the
// executor's spill eviction writes whole buckets this way without
// re-hashing the key bytes.
func (kt *KeyTable) Hash(id int32) uint64 { return kt.hashes[id] }

// MemSize approximates the table's footprint in bytes for state accounting.
func (kt *KeyTable) MemSize() int {
	return len(kt.slots)*4 + len(kt.hashes)*16 + len(kt.keys) + len(kt.dir)*4
}

// HashTags returns a 1024-bit set of the low ten bits of every stored key's
// hash. A key whose bit is clear is absent, so a caller about to look up
// mostly absent keys in a small table can skip most lookups.
func (kt *KeyTable) HashTags() (tags [16]uint64) {
	for _, h := range kt.hashes {
		tags[h>>6&15] |= 1 << (h & 63)
	}
	return tags
}

// Range declares [lo, hi] as the domain of the table's one-column integer
// keys (a routing scan's key column, catalog.Table.IntRange), which lets the
// word kernels install the direct index. The first declaration holds until
// the table is reset to its zero value; a word outside it still resolves,
// through the slots.
func (kt *KeyTable) Range(lo, hi int64) {
	if kt.span == 0 && lo <= hi {
		kt.lo, kt.span = lo, uint64(hi)-uint64(lo)+1
	}
}

// Direct reports whether the table has installed its direct index.
func (kt *KeyTable) Direct() bool { return kt.dir != nil }

// install reports whether word keys of one column resolve through dir,
// installing it first when the declared span costs no more than the table
// itself with slots for n more keys (an inserting batch's lanes): 4 × span ≤
// MemSize, compared without overflow. Keys already in the table are entered
// as add would have.
func (kt *KeyTable) install(n int) bool {
	if kt.dir != nil || kt.span == 0 {
		return kt.dir != nil
	}
	slots := max(16, len(kt.slots))
	for (len(kt.hashes)+n)*4 >= slots*3 {
		slots <<= 1
	}
	if kt.span > uint64(kt.MemSize()+4*(slots-len(kt.slots)))/4 {
		return false
	}
	kt.dir = make([]int32, kt.span)
	for id := range int32(len(kt.hashes)) {
		kt.enter(kt.Key(id), id)
	}
	return true
}

// enter puts key id into dir when its bytes are the INT-tagged encoding of a
// word in range.
func (kt *KeyTable) enter(key []byte, id int32) {
	if len(key) == 9 && key[0] == 0x01 {
		if o := binary.BigEndian.Uint64(key[1:]) - uint64(kt.lo); o < uint64(len(kt.dir)) {
			kt.dir[o] = id + 1
		}
	}
}

// Lookup returns the id of the key, or -1 when absent. It never allocates.
func (kt *KeyTable) Lookup(h uint64, key []byte) int32 {
	if len(kt.slots) == 0 {
		return -1
	}
	i := h & kt.mask
	for {
		s := kt.slots[i]
		if s == 0 {
			return -1
		}
		if id := s - 1; kt.hashes[id] == h && keyEq(kt.Key(id), key) {
			return id
		}
		i = (i + 1) & kt.mask
	}
}

// Insert returns the id of the key, adding it if absent; added reports
// whether a new id was created. The key bytes are copied into the arena, so
// callers may reuse their buffer immediately.
func (kt *KeyTable) Insert(h uint64, key []byte) (id int32, added bool) {
	if len(kt.slots) == 0 {
		kt.grow()
	}
	i := h & kt.mask
	for {
		s := kt.slots[i]
		if s == 0 {
			i, _ = kt.room(i, h)
			return kt.add(i, h, append(kt.keys, key...)), true
		}
		if cand := s - 1; kt.hashes[cand] == h && keyEq(kt.Key(cand), key) {
			return cand, false
		}
		i = (i + 1) & kt.mask
	}
}

// ktChunk is the batch kernels' two-pass window: large enough to give the
// memory system a full set of independent slot loads, small enough that the
// per-chunk address arrays stay on the stack.
const ktChunk = 128

// warm is the batch kernels' first pass over a chunk of at most ktChunk
// lanes: every lane's home slot is computed and loaded, so the loads overlap
// in the memory system and the line is warm for the second pass, which
// finishes each probe from the cached slot value.
func (kt *KeyTable) warm(hashes []uint64, home []uint64, s0 []int32) {
	home, s0 = home[:len(hashes)], s0[:len(hashes)]
	for j, h := range hashes {
		i := h & kt.mask
		home[j] = i
		s0[j] = kt.slots[i]
	}
}

// LookupBatch resolves a batch of keys in scatter layout — key j is
// keys[offs[j]:offs[j+1]] with hash hashes[j] — writing the id (or -1) to
// ids[j]. The table must not be modified during the call.
func (kt *KeyTable) LookupBatch(hashes []uint64, keys []byte, offs []int32, ids []int32) {
	kt.resolve(hashes, keys, offs, ids, nil)
}

// InsertBatch inserts a batch of keys in scatter layout, writing each
// lane's id to ids[j] and whether it was newly added to added[j].
func (kt *KeyTable) InsertBatch(hashes []uint64, keys []byte, offs []int32, ids []int32, added []bool) {
	kt.resolve(hashes, keys, offs, ids, added)
}

// LookupWords is LookupBatch for keys of k integer-backed columns given as
// words: key j is words[j*k:(j+1)*k], and hashes[j] must be Hash64 of its
// canonical encoding (HashIntKeys).
func (kt *KeyTable) LookupWords(hashes []uint64, words []int64, k int, ids []int32) {
	kt.resolveWords(hashes, words, k, ids, nil)
}

// InsertWords is InsertBatch for keys given as words, laid out as in
// LookupWords. An added key's canonical bytes go to the arena, so the table
// holds what a byte insert of the same key would have stored.
func (kt *KeyTable) InsertWords(hashes []uint64, words []int64, k int, ids []int32, added []bool) {
	kt.resolveWords(hashes, words, k, ids, added)
}

// begin readies a batch kernel's slots: an insert into a table without slots
// gets the first ones, a lookup resolves every lane to -1 and reports false.
func (kt *KeyTable) begin(n int, ids []int32, insert bool) bool {
	if insert {
		if len(kt.slots) == 0 {
			kt.grow()
		}
	} else if len(kt.slots) == 0 {
		for j := range ids[:n] {
			ids[j] = -1
		}
		return false
	}
	return true
}

// room readies the table for one more key, about to be added in empty slot
// i for hash h: at the load factor (3/4) the slot array doubles and i is
// found again. The slots therefore grow with the keys actually added, so a
// table's size does not depend on how its keys were grouped into batches.
// grew reports a doubling, after which a batch kernel warms the rest of its
// chunk again (a warm read is trusted when nonzero: a slot's value is
// write-once, 0 → id+1, so only a zero one is re-read).
func (kt *KeyTable) room(i, h uint64) (_ uint64, grew bool) {
	if len(kt.hashes)*4 < len(kt.slots)*3 {
		return i, false
	}
	kt.grow()
	i = h & kt.mask
	for kt.slots[i] != 0 {
		i = (i + 1) & kt.mask
	}
	return i, true
}

// resolve is the byte kernels' body: each lane's id, an absent key added
// when added is non-nil and resolved to -1 otherwise. A candidate is
// compared by hash first, then by bytes.
func (kt *KeyTable) resolve(hashes []uint64, keys []byte, offs []int32, ids []int32, added []bool) {
	if !kt.begin(len(hashes), ids, added != nil) {
		return
	}
	var home [ktChunk]uint64
	var s0 [ktChunk]int32
	for start := 0; start < len(hashes); start += ktChunk {
		c := min(len(hashes)-start, ktChunk)
		kt.warm(hashes[start:start+c], home[:], s0[:])
		for j := 0; j < c; j++ {
			l := start + j
			i, s, h, key := home[j], s0[j], hashes[l], keys[offs[l]:offs[l+1]]
			if s == 0 {
				s = kt.slots[i]
			}
			for ; s != 0 && (kt.hashes[s-1] != h || !keyEq(kt.Key(s-1), key)); s = kt.slots[i] {
				i = (i + 1) & kt.mask
			}
			if added != nil {
				if added[l] = s == 0; s == 0 {
					var grew bool
					if i, grew = kt.room(i, h); grew {
						kt.warm(hashes[l+1:start+c], home[j+1:], s0[j+1:])
					}
					s = kt.add(i, h, append(kt.keys, key...)) + 1
				}
			}
			ids[l] = s - 1
		}
	}
}

// resolveWords is resolve for word keys. A candidate is compared with the
// words in place, a one-column key at the constant stride of 9 bytes; a
// multi-column candidate is compared by hash first, so a probe that misses
// reads no key bytes of a candidate whose hash differs. An inserting call
// installs the direct index when it pays (install); with it, a one-column
// word in range resolves from dir alone, and a new one takes the first empty
// slot of its probe sequence, which holds no equal key (every in-range key
// is in dir). A word out of range takes the slot path.
func (kt *KeyTable) resolveWords(hashes []uint64, words []int64, k int, ids []int32, added []bool) {
	if !kt.begin(len(hashes), ids, added != nil) {
		return
	}
	dense := k == 1 && (kt.dir != nil || added != nil && kt.install(len(hashes)))
	var home [ktChunk]uint64
	var s0 [ktChunk]int32
	for start := 0; start < len(hashes); start += ktChunk {
		c := min(len(hashes)-start, ktChunk)
		if !dense {
			kt.warm(hashes[start:start+c], home[:], s0[:])
		}
		for j := 0; j < c; j++ {
			l := start + j
			i, s := home[j], s0[j]
			if dense {
				if o := uint64(words[l]) - uint64(kt.lo); o < uint64(len(kt.dir)) {
					s = kt.dir[o]
					if added != nil {
						if added[l] = s == 0; s == 0 {
							i = hashes[l] & kt.mask
							for kt.slots[i] != 0 {
								i = (i + 1) & kt.mask
							}
							i, _ = kt.room(i, hashes[l]) // a dense chunk reads no warm loads
							s = kt.add(i, hashes[l], AppendIntKey(kt.keys, words[l])) + 1
						}
					}
					ids[l] = s - 1
					continue
				}
				i, s = hashes[l]&kt.mask, 0
			}
			if s == 0 {
				s = kt.slots[i]
			}
			for ; s != 0; s = kt.slots[i] {
				if k == 1 {
					if b := kt.wordKey(s-1, 9); len(b) == 9 && b[0] == 0x01 && binary.BigEndian.Uint64(b[1:]) == uint64(words[l]) {
						break
					}
				} else if kt.hashes[s-1] == hashes[l] && wordsEq(kt.wordKey(s-1, 9*k), words[l*k:l*k+k]) {
					break
				}
				i = (i + 1) & kt.mask
			}
			if added != nil {
				if added[l] = s == 0; s == 0 {
					var grew bool
					if i, grew = kt.room(i, hashes[l]); grew && !dense {
						kt.warm(hashes[l+1:start+c], home[j+1:], s0[j+1:])
					}
					s = kt.add(i, hashes[l], AppendIntKeys(kt.keys, words[l*k:l*k+k])) + 1
				}
			}
			ids[l] = s - 1
		}
	}
}

// wordKey returns the bytes of key id for a compare against a key of n
// bytes: read in place at id × n while every key is n bytes long, else
// through the offsets.
func (kt *KeyTable) wordKey(id int32, n int) []byte {
	if int(kt.width) == n {
		return kt.keys[int(id)*n:][:n]
	}
	return kt.Key(id)
}

// wordsEq reports whether b is the canonical encoding of the words w: per
// column the integer tag and the big-endian word. The word kernel calls it
// for keys of two or more columns once the stored hash matches; it compares
// a one-column candidate inline, without the hash.
func wordsEq(b []byte, w []int64) bool {
	if len(b) != 9*len(w) {
		return false
	}
	for c, v := range w {
		if b[9*c] != 0x01 || binary.BigEndian.Uint64(b[9*c+1:]) != uint64(v) {
			return false
		}
	}
	return true
}

// keyEq is bytes.Equal with keys of 8 to 16 bytes — the encoding of one
// fixed-width column is 9 — compared inline by two overlapping loads a side,
// as Hash64 reads them, in place of a memequal call.
func keyEq(a, b []byte) bool {
	n := len(a)
	if n != len(b) || n < 8 || n > 16 {
		return string(a) == string(b)
	}
	le := binary.LittleEndian
	return le.Uint64(a) == le.Uint64(b) && le.Uint64(a[n-8:]) == le.Uint64(b[n-8:])
}

// add gives a new key the next id in empty slot i, and its entry in dir;
// keys is the arena with the key's bytes appended.
func (kt *KeyTable) add(i, h uint64, keys []byte) int32 {
	id := int32(len(kt.hashes))
	switch n := int32(len(keys) - len(kt.keys)); {
	case id == 0:
		kt.width = n
	case n != kt.width:
		kt.width = -1
	}
	if kt.dir != nil {
		kt.enter(keys[len(kt.keys):], id)
	}
	kt.hashes = append(kt.hashes, h)
	kt.keys = keys
	kt.offs = append(kt.offs, uint32(len(keys)))
	kt.slots[i] = id + 1
	return id
}

// grow doubles the slot array.
func (kt *KeyTable) grow() { kt.growTo(max(16, 2*len(kt.slots))) }

// growTo resizes the slot array to n (a power of two) and re-places every id
// by its stored hash; key bytes are never touched. The first call writes the
// offsets' sentinel: every insert follows one.
func (kt *KeyTable) growTo(n int) {
	if len(kt.offs) == 0 {
		kt.offs = append(kt.offs, 0)
	}
	slots := make([]int32, n)
	mask := uint64(n - 1)
	for id, h := range kt.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(id) + 1
	}
	kt.slots, kt.mask = slots, mask
}
