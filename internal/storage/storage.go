// Package storage is a simulated, fault-injectable persistence device for
// the analysis server's durability layer (WAL + snapshots): a disk with the
// failure modes real write-ahead logs are built to survive.
//
// Layout: a file is a list of extents plus two offsets; bytes [0,synced)
// are durable, [synced,size) is the page cache.
//
//   - Append copies each byte once — into the tail extent's spare room, the
//     rest into one new extent — and never moves an old one. A crash drops
//     what was not fsynced — or, under the torn-write fault, keeps a byte
//     prefix of it, the partial append that makes WAL readers truncate at
//     the first bad CRC.
//   - Sync is synced = size and costs what SetSyncDelayNs states, whatever
//     the file's size — unless the sync-loss fault makes it lie: it reports
//     success while the data stays volatile, the fsync-error-swallowed bug.
//   - A crash can flip a random bit in a file's durable bytes (bit rot),
//     which recovery must detect by checksum rather than trust.
//
// All faults are probabilities drawn from a stream seeded by Faults.Seed,
// so a crash schedule reproduces exactly across runs. The zero Faults
// value is an honest disk: Sync is truthful and a crash loses exactly the
// unsynced tails.
package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Faults configures the disk's seeded failure injection. Probabilities are
// in [0,1]; the zero value injects nothing.
type Faults struct {
	// Seed derives the fault stream: outcomes are a function of (Seed, ops).
	Seed int64

	// TornWrite is the probability, per file with unsynced data at crash
	// time, that a byte prefix of the tail survives — a partial append.
	TornWrite float64

	// SyncLoss is the probability a Sync call claims success while leaving
	// the data unsynced (lost if a crash precedes a later, honest Sync).
	SyncLoss float64

	// BitRot is the probability, per file at crash time, that one random
	// bit of the file's durable bytes is flipped.
	BitRot float64
}

// Validate rejects out-of-range rates.
func (f Faults) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"tornwrite", f.TornWrite}, {"syncloss", f.SyncLoss}, {"bitrot", f.BitRot}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("storage: %s rate %g out of [0,1]", r.name, r.v)
		}
	}
	return nil
}

// extentSize is the least a file grows by: small appends share an extent,
// a larger one gets a single extent of its own size.
const extentSize = 64 << 10

// file is one stored object; the package comment has the layout.
type file struct {
	ext          [][]byte // never empty; only the last has spare capacity
	size, synced int
}

// view returns a copy of what a running process reads, cached tail included.
func (f *file) view() []byte {
	out := make([]byte, 0, f.size)
	for _, e := range f.ext {
		out = append(out, e...)
	}
	return out
}

// Stats counts the disk's operations.
type Stats struct {
	Appends     int64
	AppendBytes int64
	Syncs       int64
	SyncsLost   int64 // Syncs that lied (sync-loss fault)
	Crashes     int64
	TornKept    int64 // bytes of unsynced data a torn write preserved
	BitFlips    int64
	Renames     int64
	Removes     int64
}

// Disk is the fault-injectable device. Safe for concurrent use.
type Disk struct {
	mu          sync.Mutex
	files       map[string]*file
	rng         *rand.Rand
	faults      Faults
	stats       Stats
	syncDelayNs int64
}

// NewDisk creates an empty disk. It panics on rates out of range: plans are
// test/CLI inputs, validated before they get here.
func NewDisk(f Faults) *Disk {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return &Disk{
		files:  make(map[string]*file),
		rng:    rand.New(rand.NewSource(f.Seed ^ 0x5deece66d)),
		faults: f,
	}
}

// Append buffers p onto the end of name, creating it if absent; the bytes
// are volatile (lost or torn at crash) until a truthful Sync.
func (d *Disk) Append(name string, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[name]
	if f == nil {
		f = &file{ext: [][]byte{nil}}
		d.files[name] = f
	}
	d.stats.Appends++
	d.stats.AppendBytes += int64(len(p))
	f.size += len(p)
	last := &f.ext[len(f.ext)-1]
	room := min(cap(*last)-len(*last), len(p))
	*last, p = append(*last, p[:room]...), p[room:]
	if len(p) > 0 {
		f.ext = append(f.ext, append(make([]byte, 0, max(len(p), extentSize)), p...))
	}
	return nil
}

// SetSyncDelayNs models the device's sync latency: every Sync call busy
// waits this long while holding the disk lock, the way a real fsync stalls
// its caller. The default (0) keeps Sync free, right for correctness tests;
// load benchmarks set a realistic delay, the cost sync batching amortizes.
// A busy wait, because sub-100µs sleeps round up to scheduler granularity.
func (d *Disk) SetSyncDelayNs(ns int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncDelayNs = ns
}

// Sync makes name's unsynced bytes durable. Under the sync-loss fault it
// may lie: report success and leave the tail volatile.
func (d *Disk) Sync(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[name]
	if f == nil {
		return fmt.Errorf("storage: sync %q: no such file", name)
	}
	if d.syncDelayNs > 0 {
		for t0 := time.Now(); time.Since(t0).Nanoseconds() < d.syncDelayNs; {
		}
	}
	d.stats.Syncs++
	if d.faults.SyncLoss > 0 && d.rng.Float64() < d.faults.SyncLoss {
		d.stats.SyncsLost++
		return nil
	}
	f.synced = f.size
	return nil
}

// ReadFile returns a copy of the running-process view of name: durable
// bytes plus the cached unsynced tail.
func (d *Disk) ReadFile(name string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[name]
	if f == nil {
		return nil, fmt.Errorf("storage: read %q: no such file", name)
	}
	return f.view(), nil
}

// Rename atomically and durably renames old to new, replacing any existing
// new — the snapshots' commit primitive. A crash never sees a half rename.
func (d *Disk) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[oldName]
	if f == nil {
		return fmt.Errorf("storage: rename %q: no such file", oldName)
	}
	delete(d.files, oldName)
	d.files[newName] = f
	d.stats.Renames++
	return nil
}

// Remove deletes name; a missing file is not an error (idempotent cleanup).
func (d *Disk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; ok {
		delete(d.files, name)
		d.stats.Removes++
	}
	return nil
}

// List returns the stored file names in sorted order.
func (d *Disk) List() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sortedNames()
}

func (d *Disk) sortedNames() []string {
	out := make([]string, 0, len(d.files))
	for name := range d.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Crash simulates losing the machine: every file's unsynced tail is
// discarded — or torn, keeping a random byte prefix — and durable bytes may
// suffer a single-bit flip. The disk stays usable; recovery reads the rest.
func (d *Disk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Crashes++
	// Sorted, so map iteration order does not decide which file tears.
	for _, name := range d.sortedNames() {
		f := d.files[name]
		if f.size > f.synced && d.faults.TornWrite > 0 && d.rng.Float64() < d.faults.TornWrite {
			keep := d.rng.Intn(f.size - f.synced + 1)
			f.synced += keep
			d.stats.TornKept += int64(keep)
		}
		// What survives becomes one flat extent: a crash may copy a file,
		// nothing on the running path does.
		data := f.view()[:f.synced]
		if len(data) > 0 && d.faults.BitRot > 0 && d.rng.Float64() < d.faults.BitRot {
			bit := d.rng.Intn(len(data) * 8)
			data[bit/8] ^= 1 << (bit % 8)
			d.stats.BitFlips++
		}
		f.ext, f.size = [][]byte{data}, f.synced
	}
}

// Stats returns the operation counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Size returns the total bytes stored (durable + unsynced) across files.
func (d *Disk) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, f := range d.files {
		n += int64(f.size)
	}
	return n
}
