package server

import (
	"math/rand/v2"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/storage"
)

// keySets are the key families the part index must spread, in a fixed
// order: random keys, and three adversarial ones a weak hash would pile
// into few buckets.
func keySets(r *rand.Rand) []keySet {
	const n = 1500 // past six doublings of the table
	sets := []keySet{{name: "random"}, {name: "same slice, sensor or group"}, {name: "negative"}, {name: "slice bits >= 40"}}
	for i := range n {
		sets[0].keys = append(sets[0].keys, epochKey{sensor: r.Int32N(64), group: r.Int32N(8), slice: r.Int64N(1 << 50)})
		// One slice; keys differ only in sensor, or only in group.
		sets[1].keys = append(sets[1].keys, epochKey{sensor: int32(i), slice: 7_000_000}, epochKey{group: int32(i + 1), slice: 7_000_000})
		// Every field negative.
		sets[2].keys = append(sets[2].keys, epochKey{sensor: -1 - int32(i%40), group: -1 - int32(i/40), slice: -1_000_000 * int64(i+1)})
		// Slices equal in their low 40 bits.
		sets[3].keys = append(sets[3].keys, epochKey{sensor: 3, group: 1, slice: int64(i)<<40 | 12345})
	}
	return sets
}

type keySet struct {
	name string
	keys []epochKey
}

// meanProbes is the mean number of slots a lookup of each held key reads.
func meanProbes(ix *partIndex) float64 {
	mask := uint64(len(ix.slots) - 1)
	total := 0
	for i, s := range ix.slots {
		if s.pt != nil {
			total += int((uint64(i)-s.key.hash())&mask) + 1
		}
	}
	return float64(total) / float64(ix.n)
}

// probeFloor is the fewest keys at which the probe bound is asserted.
// Below it the mean of a half-full table strays past 2 under some process
// seeds, as it would for any hash (in a trial of 4000 seeded tables: at 8
// keys 2.5 % of them, at 512 keys one); at 1024 keys the worst was 1.76.
const probeFloor = 1024

// TestPartIndexMatchesMap drives seeded get/put sequences over each key
// set through the part index and a Go map side by side, through six
// doublings, and requires the two to agree on every lookup; on each set a
// held key must take at most 2 probes on average, checked when the table
// is fullest (just before it doubles) from probeFloor keys on and at the
// end. Then it crashes a durable server, whose reset (recover.go) must
// empty every shard's index, recovers it, and checks that every shard's
// index holds exactly the keys its records carry.
func TestPartIndexMatchesMap(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 40))
	sets := keySets(r)
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			var ix partIndex
			want := map[epochKey]*part{}
			checkProbes := func() {
				if m := meanProbes(&ix); m > 2 {
					t.Errorf("%d keys in %d slots take %.2f probes on average, want <= 2", ix.n, len(ix.slots), m)
				}
			}
			for i, k := range set.keys {
				// Look up a held key, the new key, and a key never put.
				for _, q := range []epochKey{set.keys[r.IntN(i+1)], k, {sensor: k.sensor, group: k.group, slice: ^k.slice}} {
					if got := ix.get(q); got != want[q] {
						t.Fatalf("after %d puts: get(%+v) = %p, map says %p", i, q, got, want[q])
					}
				}
				if want[k] != nil {
					continue
				}
				if 2*(ix.n+1) > len(ix.slots) && ix.n >= probeFloor {
					checkProbes()
				}
				pt := new(part)
				ix.put(k, pt)
				want[k] = pt
			}
			if ix.n != len(want) || len(ix.slots) < 2*ix.n || len(ix.slots) < 64*partIndexMin {
				t.Fatalf("index holds %d keys in %d slots (the map %d): fewer than six doublings, or over half full", ix.n, len(ix.slots), len(want))
			}
			for k, pt := range want {
				if ix.get(k) != pt {
					t.Fatalf("final get(%+v) lost its part", k)
				}
			}
			checkProbes()
		})
	}

	t.Run("crash and recover", func(t *testing.T) {
		s := NewSharded(4)
		s.AttachDurability(DurabilityConfig{Disk: storage.NewDisk(storage.Faults{})})
		adversarial := sets[3].keys[:200]
		for rank := range 8 {
			recs := make([]detect.SliceRecord, len(adversarial))
			for i, k := range adversarial {
				recs[i] = detect.SliceRecord{Sensor: int(k.sensor), Group: int(k.group), Rank: rank, SliceNs: k.slice, Count: 1, AvgNs: 100}
			}
			if err := s.Receive(AppendFrame(nil, FrameHeader{Rank: rank, Seq: 1, CumRecords: uint64(len(recs))}, recs)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		for i, sh := range s.shards {
			if sh.parts.n != 0 || sh.parts.get(adversarial[0]) != nil {
				t.Fatalf("shard %d: the crash left %d keys in the index", i, sh.parts.n)
			}
		}
		if _, err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		perShard := make([]map[epochKey]int, len(s.shards))
		for i := range perShard {
			perShard[i] = map[epochKey]int{}
		}
		for _, rec := range s.Records() {
			k := epochKey{sensor: int32(rec.Sensor), group: int32(rec.Group), slice: rec.SliceNs}
			perShard[uint32(rec.Rank)&s.mask][k]++
		}
		for i, sh := range s.shards {
			if sh.parts.n != len(perShard[i]) {
				t.Errorf("shard %d: index holds %d keys after recovery, its records %d", i, sh.parts.n, len(perShard[i]))
			}
			for k, n := range perShard[i] {
				if pt := sh.parts.get(k); pt == nil {
					t.Errorf("shard %d: key %+v missing from the index after recovery", i, k)
				} else if pt.n != n {
					t.Errorf("shard %d: key %+v holds %d entries after recovery, want %d", i, k, pt.n, n)
				}
			}
		}
	})
}
