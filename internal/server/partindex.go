package server

import "math/rand/v2"

// partSeed keys the hash of every shard's part index. It is drawn once per
// process, not per shard or per server: a key set built to collide under
// one seed says nothing about the next process, and no shard carries a
// field that two otherwise equal shards (a snapshot slot decoded twice)
// would differ in.
var partSeed = rand.Uint64()

// partIndex is a shard's map from epoch key to its part of the epoch: open
// addressing with linear probing over a power-of-two table, never more
// than half full, whose slots hold the key inline next to the part. A fold
// looks one up per record, which costs the hash and, at that load, one
// slot and rarely a second. The zero value is an empty index.
type partIndex struct {
	slots []partSlot
	n     int // occupied slots
}

type partSlot struct {
	key epochKey
	pt  *part // nil: the slot is empty
}

// partIndexMin is the table size of a shard's first key.
const partIndexMin = 16

// hash folds the key's three fields into one word under partSeed and
// mixes it with the splitmix64 finalizer, in which every output bit
// depends on every input bit: keys that differ only in high slice bits,
// or only in sensor or group, spread over the table like any others. The
// fold multiplies sensor and group by an odd constant, so two keys meet
// before the mix only if their slices differ, bit for bit, as those two
// products do: 64-bit values no slice clock runs into.
func (k epochKey) hash() uint64 {
	sg := uint64(uint32(k.sensor))<<32 | uint64(uint32(k.group))
	x := partSeed ^ uint64(k.slice) ^ sg*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// get returns k's part, or nil when the shard has none.
func (ix *partIndex) get(k epochKey) *part {
	if ix.n == 0 {
		return nil
	}
	mask := uint64(len(ix.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.pt == nil || s.key == k {
			return s.pt
		}
	}
}

// put files pt under k, which the index does not hold, doubling the table
// first if the new key would fill more than half of it.
func (ix *partIndex) put(k epochKey, pt *part) {
	if 2*(ix.n+1) > len(ix.slots) {
		old := ix.slots
		ix.slots = make([]partSlot, max(partIndexMin, 2*len(old)))
		for _, s := range old {
			if s.pt != nil {
				ix.place(s)
			}
		}
	}
	ix.place(partSlot{k, pt})
	ix.n++
}

// place writes s into the first empty slot of its key's probe sequence.
func (ix *partIndex) place(s partSlot) {
	mask := uint64(len(ix.slots) - 1)
	i := s.key.hash() & mask
	for ix.slots[i].pt != nil {
		i = (i + 1) & mask
	}
	ix.slots[i] = s
}
