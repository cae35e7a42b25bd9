package types

import "bytes"

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
	return len(kt.slots)*4 + len(kt.hashes)*16 + len(kt.keys)
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
		if id := s - 1; kt.hashes[id] == h && bytes.Equal(kt.Key(id), key) {
			return id
		}
		i = (i + 1) & kt.mask
	}
}

// Insert returns the id of the key, adding it if absent; added reports
// whether a new id was created. The key bytes are copied into the arena, so
// callers may reuse their buffer immediately.
func (kt *KeyTable) Insert(h uint64, key []byte) (id int32, added bool) {
	if len(kt.hashes)*4 >= len(kt.slots)*3 { // load factor 3/4, also 0-cap init
		kt.grow()
	}
	i := h & kt.mask
	for {
		s := kt.slots[i]
		if s == 0 {
			id = int32(len(kt.hashes))
			kt.hashes = append(kt.hashes, h)
			kt.keys = append(kt.keys, key...)
			kt.offs = append(kt.offs, uint32(len(kt.keys)))
			kt.slots[i] = id + 1
			return id, true
		}
		if cand := s - 1; kt.hashes[cand] == h && bytes.Equal(kt.Key(cand), key) {
			return cand, false
		}
		i = (i + 1) & kt.mask
	}
}

// ktChunk is the batch kernels' two-pass window: large enough to give the
// memory system a full set of independent slot loads, small enough that the
// per-chunk address arrays stay on the stack.
const ktChunk = 128

// LookupBatch resolves a batch of keys in scatter layout — key j is
// keys[offs[j]:offs[j+1]] with hash hashes[j] — writing the id (or -1) to
// ids[j]. Per chunk it runs two passes: the first computes every lane's
// home slot and loads it, so the loads overlap in the memory system and
// the line is warm for pass two, which finishes each probe from the cached
// slot value. The table must not be modified during the call.
func (kt *KeyTable) LookupBatch(hashes []uint64, keys []byte, offs []int32, ids []int32) {
	if len(kt.slots) == 0 {
		for j := range hashes {
			ids[j] = -1
		}
		return
	}
	var home [ktChunk]uint64
	var s0 [ktChunk]int32
	for start := 0; start < len(hashes); start += ktChunk {
		c := len(hashes) - start
		if c > ktChunk {
			c = ktChunk
		}
		for j := 0; j < c; j++ {
			i := hashes[start+j] & kt.mask
			home[j] = i
			s0[j] = kt.slots[i]
		}
		for j := 0; j < c; j++ {
			s := s0[j]
			if s == 0 {
				ids[start+j] = -1
				continue
			}
			h := hashes[start+j]
			key := keys[offs[start+j]:offs[start+j+1]]
			if id := s - 1; kt.hashes[id] == h && bytes.Equal(kt.Key(id), key) {
				ids[start+j] = id
				continue
			}
			ids[start+j] = kt.lookupFrom((home[j]+1)&kt.mask, h, key)
		}
	}
}

// lookupFrom continues a linear probe past a mismatched home slot.
func (kt *KeyTable) lookupFrom(i uint64, h uint64, key []byte) int32 {
	for {
		s := kt.slots[i]
		if s == 0 {
			return -1
		}
		if id := s - 1; kt.hashes[id] == h && bytes.Equal(kt.Key(id), key) {
			return id
		}
		i = (i + 1) & kt.mask
	}
}

// InsertBatch inserts a batch of keys in scatter layout, writing each
// lane's id to ids[j] and whether it was newly added to added[j]. The slot
// array is grown once up front for the worst case, so no rehash happens
// mid-batch and the warming pass's home-slot loads stay valid: a slot's
// value is write-once (0 → id+1), so a nonzero warm read is trusted while
// a zero one is re-read — an earlier lane of the same batch may have
// claimed the slot since.
func (kt *KeyTable) InsertBatch(hashes []uint64, keys []byte, offs []int32, ids []int32, added []bool) {
	for (len(kt.hashes)+len(hashes))*4 >= len(kt.slots)*3 {
		kt.grow()
	}
	var home [ktChunk]uint64
	var s0 [ktChunk]int32
	for start := 0; start < len(hashes); start += ktChunk {
		c := len(hashes) - start
		if c > ktChunk {
			c = ktChunk
		}
		for j := 0; j < c; j++ {
			i := hashes[start+j] & kt.mask
			home[j] = i
			s0[j] = kt.slots[i]
		}
		for j := 0; j < c; j++ {
			i := home[j]
			s := s0[j]
			if s == 0 {
				s = kt.slots[i]
			}
			ids[start+j], added[start+j] = kt.insertFrom(i, s,
				hashes[start+j], keys[offs[start+j]:offs[start+j+1]])
		}
	}
}

// insertFrom finishes an insert probe at slot i whose current value is s;
// the caller guarantees the slot array will not grow during the probe.
func (kt *KeyTable) insertFrom(i uint64, s int32, h uint64, key []byte) (id int32, added bool) {
	for {
		if s == 0 {
			id = int32(len(kt.hashes))
			kt.hashes = append(kt.hashes, h)
			kt.keys = append(kt.keys, key...)
			kt.offs = append(kt.offs, uint32(len(kt.keys)))
			kt.slots[i] = id + 1
			return id, true
		}
		if cand := s - 1; kt.hashes[cand] == h && bytes.Equal(kt.Key(cand), key) {
			return cand, false
		}
		i = (i + 1) & kt.mask
		s = kt.slots[i]
	}
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
