package storage

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestAppendSyncCrash(t *testing.T) {
	d := NewDisk(Faults{})
	if err := d.Append("wal", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync("wal"); err != nil {
		t.Fatal(err)
	}
	if err := d.Append("wal", []byte("def")); err != nil {
		t.Fatal(err)
	}
	// Reads see the cached (unsynced) tail.
	got, err := d.ReadFile("wal")
	if err != nil || !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("read = %q, %v", got, err)
	}
	// An honest crash loses exactly the unsynced tail.
	d.Crash()
	got, err = d.ReadFile("wal")
	if err != nil || !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("post-crash read = %q, %v (want synced prefix only)", got, err)
	}
}

// SetSyncDelayNs models device fsync latency: each Sync stalls its caller
// for at least the configured delay; appends and reads stay free.
func TestSyncDelayStallsSync(t *testing.T) {
	d := NewDisk(Faults{})
	const delay = 200_000 // generous vs timer noise
	d.SetSyncDelayNs(delay)
	if err := d.Append("wal", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := d.Sync("wal"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0).Nanoseconds(); took < delay {
		t.Errorf("sync took %dns, want >= %dns", took, delay)
	}
	got, err := d.ReadFile("wal")
	if err != nil || !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("read = %q, %v", got, err)
	}
	d.SetSyncDelayNs(0)
	t0 = time.Now()
	if err := d.Sync("wal"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0).Nanoseconds(); took > delay {
		t.Errorf("delay-free sync took %dns", took)
	}
}

func TestRenameAtomicDurable(t *testing.T) {
	d := NewDisk(Faults{})
	d.Append("snap.tmp", []byte("state"))
	if err := d.Sync("snap.tmp"); err != nil {
		t.Fatal(err)
	}
	if err := d.Rename("snap.tmp", "snap.a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadFile("snap.tmp"); err == nil {
		t.Fatal("old name still readable after rename")
	}
	d.Crash()
	got, err := d.ReadFile("snap.a")
	if err != nil || !bytes.Equal(got, []byte("state")) {
		t.Fatalf("renamed file lost at crash: %q, %v", got, err)
	}
	// Rename replaces an existing target.
	d.Append("snap.tmp", []byte("newer"))
	d.Sync("snap.tmp")
	if err := d.Rename("snap.tmp", "snap.a"); err != nil {
		t.Fatal(err)
	}
	got, _ = d.ReadFile("snap.a")
	if !bytes.Equal(got, []byte("newer")) {
		t.Fatalf("rename did not replace: %q", got)
	}
}

func TestErrors(t *testing.T) {
	d := NewDisk(Faults{})
	if _, err := d.ReadFile("missing"); err == nil {
		t.Error("read of missing file succeeded")
	}
	if err := d.Sync("missing"); err == nil {
		t.Error("sync of missing file succeeded")
	}
	if err := d.Rename("missing", "x"); err == nil {
		t.Error("rename of missing file succeeded")
	}
	if err := d.Remove("missing"); err != nil {
		t.Errorf("remove of missing file errored: %v", err)
	}
	if err := (Faults{TornWrite: 2}).Validate(); err == nil {
		t.Error("out-of-range fault rate accepted")
	}
}

func TestTornWriteKeepsPrefix(t *testing.T) {
	// With TornWrite=1 every crash keeps some prefix (possibly empty) of the
	// unsynced tail; the durable base is never damaged.
	for seed := int64(0); seed < 20; seed++ {
		d := NewDisk(Faults{Seed: seed, TornWrite: 1})
		d.Append("wal", []byte("synced|"))
		d.Sync("wal")
		tail := []byte("0123456789")
		d.Append("wal", tail)
		d.Crash()
		got, err := d.ReadFile("wal")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, []byte("synced|")) {
			t.Fatalf("seed %d: durable prefix damaged: %q", seed, got)
		}
		rest := got[len("synced|"):]
		if !bytes.HasPrefix(tail, rest) {
			t.Fatalf("seed %d: torn tail %q is not a prefix of %q", seed, rest, tail)
		}
	}
}

func TestSyncLossLosesAckedData(t *testing.T) {
	d := NewDisk(Faults{Seed: 7, SyncLoss: 1})
	d.Append("wal", []byte("abc"))
	if err := d.Sync("wal"); err != nil {
		t.Fatalf("lying sync must still report success: %v", err)
	}
	d.Crash()
	got, err := d.ReadFile("wal")
	if err != nil || len(got) != 0 {
		t.Fatalf("sync-loss data survived crash: %q, %v", got, err)
	}
	if st := d.Stats(); st.SyncsLost != 1 {
		t.Errorf("stats = %+v, want 1 lost sync", st)
	}
}

func TestBitRotFlipsOneBit(t *testing.T) {
	d := NewDisk(Faults{Seed: 3, BitRot: 1})
	orig := []byte("abcdefgh")
	d.Append("f", orig)
	d.Sync("f")
	d.Crash()
	got, _ := d.ReadFile("f")
	diff := 0
	for i := range got {
		b := got[i] ^ orig[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit rot flipped %d bits, want exactly 1 (%q vs %q)", diff, got, orig)
	}
	if st := d.Stats(); st.BitFlips != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeterministicFaultStream(t *testing.T) {
	run := func() []byte {
		d := NewDisk(Faults{Seed: 99, TornWrite: 0.7, BitRot: 0.5})
		d.Append("wal", bytes.Repeat([]byte("x"), 64))
		d.Sync("wal")
		d.Append("wal", bytes.Repeat([]byte("y"), 64))
		d.Crash()
		got, _ := d.ReadFile("wal")
		return got
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("same seed, different crash outcome:\n%q\n%q", a, b)
	}
}

func TestListAndSize(t *testing.T) {
	d := NewDisk(Faults{})
	d.Append("b", []byte("22"))
	d.Append("a", []byte("1"))
	names := d.List()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("list = %v", names)
	}
	if d.Size() != 3 {
		t.Errorf("size = %d", d.Size())
	}
	d.Remove("b")
	if got := d.List(); len(got) != 1 || got[0] != "a" {
		t.Errorf("list after remove = %v", got)
	}
}

// modelDisk is the two-slice file representation storage.go used before
// extents, kept as the executable specification of the disk: a durable slice
// and an unsynced slice per file, the same fault stream, the same draws. It
// re-copies a file on every Sync, which is why it is a model and not the
// implementation.
type modelDisk struct {
	files  map[string]*modelFile
	rng    *rand.Rand
	faults Faults
	stats  Stats
}

type modelFile struct{ durable, unsynced []byte }

func newModelDisk(f Faults) *modelDisk {
	return &modelDisk{
		files:  make(map[string]*modelFile),
		rng:    rand.New(rand.NewSource(f.Seed ^ 0x5deece66d)),
		faults: f,
	}
}

func (d *modelDisk) Append(name string, p []byte) {
	f := d.files[name]
	if f == nil {
		f = &modelFile{}
		d.files[name] = f
	}
	f.unsynced = append(f.unsynced, p...)
	d.stats.Appends++
	d.stats.AppendBytes += int64(len(p))
}

func (d *modelDisk) Sync(name string) bool {
	f := d.files[name]
	if f == nil {
		return false
	}
	d.stats.Syncs++
	if d.faults.SyncLoss > 0 && d.rng.Float64() < d.faults.SyncLoss {
		d.stats.SyncsLost++
		return true
	}
	f.durable = append(f.durable, f.unsynced...)
	f.unsynced = f.unsynced[:0]
	return true
}

func (d *modelDisk) ReadFile(name string) ([]byte, bool) {
	f := d.files[name]
	if f == nil {
		return nil, false
	}
	return append(append([]byte{}, f.durable...), f.unsynced...), true
}

func (d *modelDisk) Rename(oldName, newName string) bool {
	f := d.files[oldName]
	if f == nil {
		return false
	}
	delete(d.files, oldName)
	d.files[newName] = f
	d.stats.Renames++
	return true
}

func (d *modelDisk) Remove(name string) {
	if _, ok := d.files[name]; ok {
		delete(d.files, name)
		d.stats.Removes++
	}
}

func (d *modelDisk) List() []string {
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (d *modelDisk) Crash() {
	d.stats.Crashes++
	for _, name := range d.List() {
		f := d.files[name]
		if len(f.unsynced) > 0 {
			if d.faults.TornWrite > 0 && d.rng.Float64() < d.faults.TornWrite {
				keep := d.rng.Intn(len(f.unsynced) + 1)
				f.durable = append(f.durable, f.unsynced[:keep]...)
				d.stats.TornKept += int64(keep)
			}
			f.unsynced = nil
		}
		if len(f.durable) > 0 && d.faults.BitRot > 0 && d.rng.Float64() < d.faults.BitRot {
			bit := d.rng.Intn(len(f.durable) * 8)
			f.durable[bit/8] ^= 1 << (bit % 8)
			d.stats.BitFlips++
		}
	}
}

func (d *modelDisk) Size() int64 {
	var n int64
	for _, f := range d.files {
		n += int64(len(f.durable) + len(f.unsynced))
	}
	return n
}

// TestExtentsMatchModel drives the extent disk and the two-slice model with
// the same seeded operation sequence — appends sized to straddle extent
// boundaries, honest and lying syncs, renames over live files, removes,
// crashes with torn writes and bit rot — and demands the same bytes, sizes,
// counters and errors after every step. Every seeded kill-recover trial in
// the repository leans on this: the disk changed its layout, not one draw.
func TestExtentsMatchModel(t *testing.T) {
	sizes := []int{0, 1, 7, 300, 4096, 20000, extentSize - 1, extentSize, extentSize + 1, 2*extentSize + 13}
	names := []string{"wal.0", "wal.1", "snap.a", "snap.b", "snap.tmp"}
	for seed := int64(0); seed < 24; seed++ {
		ops := rand.New(rand.NewSource(0xE47E + seed))
		faults := Faults{
			Seed:      seed,
			TornWrite: []float64{0, 0.5, 1}[ops.Intn(3)],
			SyncLoss:  []float64{0, 0.3}[ops.Intn(2)],
			BitRot:    []float64{0, 0.4, 1}[ops.Intn(3)],
		}
		got, want := NewDisk(faults), newModelDisk(faults)
		for step := 0; step < 200; step++ {
			name, to := names[ops.Intn(len(names))], names[ops.Intn(len(names))]
			crashed := false
			switch op := ops.Intn(100); {
			case op < 45:
				p := make([]byte, sizes[ops.Intn(len(sizes))]+ops.Intn(3))
				ops.Read(p)
				if err := got.Append(name, p); err != nil {
					t.Fatalf("seed %d step %d: append: %v", seed, step, err)
				}
				want.Append(name, p)
			case op < 75:
				if err, ok := got.Sync(name), want.Sync(name); (err == nil) != ok {
					t.Fatalf("seed %d step %d: sync %s = %v, model ok=%v", seed, step, name, err, ok)
				}
			case op < 83:
				if err, ok := got.Rename(name, to), want.Rename(name, to); (err == nil) != ok {
					t.Fatalf("seed %d step %d: rename %s→%s = %v, model ok=%v", seed, step, name, to, err, ok)
				}
			case op < 88:
				if err := got.Remove(name); err != nil {
					t.Fatalf("seed %d step %d: remove: %v", seed, step, err)
				}
				want.Remove(name)
			default:
				got.Crash()
				want.Crash()
				crashed = true
			}
			if g, w := got.Stats(), want.stats; g != w {
				t.Fatalf("seed %d step %d: stats\n got %+v\nwant %+v", seed, step, g, w)
			}
			if g, w := got.Size(), want.Size(); g != w {
				t.Fatalf("seed %d step %d: size %d, model %d", seed, step, g, w)
			}
			gl, wl := got.List(), want.List()
			if !slices.Equal(gl, wl) {
				t.Fatalf("seed %d step %d: files %v, model %v", seed, step, gl, wl)
			}
			if !crashed && step%16 != 0 {
				wl = []string{name, to} // what this step touched; everything after a crash and now and then
			}
			for _, n := range wl {
				g, err := got.ReadFile(n)
				w, ok := want.ReadFile(n)
				if (err == nil) != ok || !bytes.Equal(g, w) {
					t.Fatalf("seed %d step %d: %s holds %d bytes (err %v), model %d; first difference at %d",
						seed, step, n, len(g), err, len(w), firstDiff(g, w))
				}
			}
		}
		if st := got.Stats(); st.Crashes == 0 || st.Appends == 0 {
			t.Fatalf("seed %d: schedule too tame: %+v", seed, st)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSyncCostIndependentOfFileSize pins what the extent layout is for: a
// Sync moves a watermark and allocates nothing however large the file is, and
// an Append pays for the bytes it is handed plus at most one fresh extent
// (and the extent table's own growth) — never for the bytes already there.
func TestSyncCostIndependentOfFileSize(t *testing.T) {
	d := NewDisk(Faults{})
	block := bytes.Repeat([]byte{0xA5}, 1<<20)
	for i := 0; i < 16; i++ {
		if err := d.Append("slot", block); err != nil {
			t.Fatal(err)
		}
	}
	small := block[:4096]
	if n := testing.AllocsPerRun(100, func() {
		_ = d.Append("slot", small)
		_ = d.Sync("slot")
	}); n > 1 {
		t.Errorf("append+sync on a 16 MiB file: %.1f allocations, want at most the one extent", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = d.Sync("slot") }); n != 0 {
		t.Errorf("Sync allocates %.1f times per call, want 0", n)
	}
	for _, n := range []int{1, 4096, extentSize + 1, 5*extentSize + 77} {
		p := block[:n]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := d.Append("slot", p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		const tableGrowth = 16 << 10 // the [][]byte of extents doubling, at most once
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n+extentSize+tableGrowth); got > limit {
			t.Errorf("Append of %d bytes to a %d MiB file allocated %d bytes, want <= %d", n, d.Size()>>20, got, limit)
		}
	}
}
