package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropertyIOControllerConservation drives random read/write workloads
// through Algorithms 2 & 3 — once per registered policy — and checks global
// byte conservation and accounting invariants after every operation:
//
//   - every byte of a read is served exactly once (disk + cache = request);
//   - every byte of a write lands somewhere durable-or-cached
//     (memWrites = cache insertions; flushed + dirty = written);
//   - manager invariants (list accounting, non-negative free) hold.
func TestPropertyIOControllerConservation(t *testing.T) {
	for _, policy := range PolicyNames() {
		for _, wb := range WritebackPolicyNames() {
			policy, wb := policy, wb
			t.Run(policy+"/"+wb, func(t *testing.T) {
				t.Parallel()
				testIOControllerConservation(t, policy, wb)
			})
		}
	}
}

func testIOControllerConservation(t *testing.T, policy, wb string) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		if err := runManagerOps(policy, wb, false, rng, conservationOps, fixedSteps(60)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// opChooser supplies an operation sequence's choices: a seeded *rand.Rand
// in the property test, fuzz bytes in FuzzManagerOps.
type opChooser interface {
	Intn(n int) int
	Int63n(n int64) int64
	Float64() float64
}

// conservationOps is the number of operation kinds the property test draws
// from: the I/O controller's reads and writes, task ends, flusher passes,
// cache drops and resizes. runManagerOps' further kinds call the Manager
// directly.
const (
	conservationOps = 6
	allManagerOps   = 14
)

func fixedSteps(n int) func(int) bool { return func(step int) bool { return step < n } }

// runManagerOps builds a manager under policy and wb (with per-device
// writeback domains when domains is set) and runs operations drawn from
// the first ops kinds while more allows, checking byte conservation after
// each I/O-controller operation and CheckInvariants after every one.
func runManagerOps(policy, wb string, domains bool, ch opChooser, ops int, more func(step int) bool) error {
	total := int64(50000 + ch.Intn(100000))
	cfg := DefaultConfig(total)
	cfg.Policy = policy
	cfg.Writeback = wb
	if ch.Intn(2) == 0 {
		cfg.DirtyBackgroundRatio = 0.10
	}
	m, err := NewManager(cfg)
	if err != nil {
		return err
	}
	if domains {
		// "a" and "b" get a device each; "c" stays in the default domain.
		devs := []DomainConfig{{Dev: "da", WriteBW: 1}, {Dev: "db", WriteBW: 3}}
		resolve := func(file string) string {
			if file == "c" {
				return ""
			}
			return "d" + file
		}
		if err := m.ConfigureDomains(devs, resolve); err != nil {
			return err
		}
	}
	chunk := int64(500 + ch.Intn(2000))
	io, err := NewIOController(m, chunk)
	if err != nil {
		return err
	}
	c := newFakeCaller()
	files := map[string]int64{} // written sizes
	names := []string{"a", "b", "c"}
	var anon int64

	for op := 0; more(op); op++ {
		c.now += ch.Float64() * 5
		name := names[ch.Intn(len(names))]
		switch ch.Intn(ops) {
		case 0: // write
			n := int64(1 + ch.Intn(8000))
			if files[name]+n+anon > total/2 {
				continue // keep the workload within RAM
			}
			preDirty := m.Dirty()
			preDiskW := c.diskWrites
			preMemW := c.memWrites
			if err := io.WriteFile(c, name, n); err != nil {
				return fmt.Errorf("write: %v", err)
			}
			files[name] += n
			// Written bytes all hit memory (cache insertions)...
			if c.memWrites-preMemW != n {
				return fmt.Errorf("write %d, memWrites %d", n, c.memWrites-preMemW)
			}
			// ...and are either still dirty or were flushed to disk
			// (other blocks may have been flushed too, hence ≥).
			dirtyDelta := m.Dirty() - preDirty
			flushed := c.diskWrites - preDiskW
			if dirtyDelta+flushed < n {
				return fmt.Errorf("write %d, dirtyΔ %d + flushed %d", n, dirtyDelta, flushed)
			}
		case 1: // read (whole or partial)
			size := files[name]
			if size == 0 {
				continue
			}
			n := 1 + ch.Int63n(size)
			if anon+n > total/2 {
				continue
			}
			preDiskR := c.diskReads
			preMemR := c.memReads
			if err := io.Read(c, name, n, size); err != nil {
				if errors.Is(err, ErrOutOfMemory) {
					continue
				}
				return fmt.Errorf("read: %v", err)
			}
			anon += n
			if got := (c.diskReads - preDiskR) + (c.memReads - preMemR); got != n {
				return fmt.Errorf("read %d served %d", n, got)
			}
		case 2: // task end
			if anon > 0 {
				m.ReleaseAnon(anon)
				anon = 0
			}
		case 3: // background flush catch-up
			m.FlushPass(c, 0)
		case 4: // echo 3 > drop_caches (chaos cache-drop fault)
			preCache, preDirty := m.CacheBytes(), m.Dirty()
			dropped := m.DropCaches()
			if dropped != preCache-preDirty {
				return fmt.Errorf("DropCaches dropped %d, clean was %d", dropped, preCache-preDirty)
			}
			if m.CacheBytes() != m.Dirty() || m.Dirty() != preDirty {
				return fmt.Errorf("after DropCaches cache %d dirty %d (pre-dirty %d)",
					m.CacheBytes(), m.Dirty(), preDirty)
			}
		case 5: // cgroup-style limit shrink/grow (chaos resize fault)
			newTotal := int64(40000 + ch.Intn(130000))
			residual, err := m.Resize(c, newTotal)
			if err != nil {
				return fmt.Errorf("Resize: %v", err)
			}
			want := anon - newTotal
			if want < 0 {
				want = 0
			}
			if residual != want {
				return fmt.Errorf("Resize(%d) residual %d, want %d (anon %d)",
					newTotal, residual, want, anon)
			}
			total = newTotal
		case 6: // direct dirty write
			n := int64(1 + ch.Intn(8000))
			if m.WriteToCache(c, name, n) == 0 {
				files[name] += n
			}
		case 7: // cache hit on up to the cached bytes
			if cached := m.Cached(name); cached > 0 {
				m.CacheRead(c, name, 1+ch.Int63n(cached))
			}
		case 8: // disk-read insert of bytes the file has but the cache lacks
			if gap := files[name] - m.Cached(name); gap > 0 {
				m.AddToCache(name, 1+ch.Int63n(gap), c.now)
			}
		case 9: // foreground flush, cross-domain or one domain's
			n := int64(1 + ch.Intn(20000))
			if dom := ch.Intn(m.DomainCount() + 1); dom == m.DomainCount() {
				m.Flush(c, n)
			} else {
				m.FlushDomain(c, dom, n)
			}
		case 10: // expiry pass
			m.FlushExpiredDomain(c, ch.Intn(m.DomainCount()))
		case 11: // eviction, sparing one file or none
			exclude := ""
			if ch.Intn(2) == 0 {
				exclude = name
			}
			m.Evict(int64(1+ch.Intn(20000)), exclude)
		case 12: // file deletion
			m.InvalidateFile(name)
			files[name] = 0
		case 13:
			m.pol.Rebalance(m)
		}
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("op %d: %v", op, err)
		}
		if m.Cached(name) > files[name] {
			return fmt.Errorf("%s cached %d > written %d", name, m.Cached(name), files[name])
		}
	}
	return nil
}

// byteChooser reads choices from fuzz bytes: four little-endian bytes per
// integer choice (zero once the bytes run out), two per Float64.
type byteChooser struct{ b []byte }

func (s *byteChooser) next(k int) uint64 {
	var v uint64
	for i := 0; i < k && len(s.b) > 0; i++ {
		v |= uint64(s.b[0]) << (8 * i)
		s.b = s.b[1:]
	}
	return v
}

func (s *byteChooser) Intn(n int) int       { return int(s.next(4) % uint64(n)) }
func (s *byteChooser) Int63n(n int64) int64 { return int64(s.next(4) % uint64(n)) }
func (s *byteChooser) Float64() float64     { return float64(s.next(2)) / (1 << 16) }

// more continues while bytes are left, for at most 200 operations.
func (s *byteChooser) more(step int) bool { return len(s.b) > 0 && step < 200 }

// recordingChooser passes on a *rand.Rand's choices in byteChooser's
// encoding, so a seeded sequence becomes a fuzz seed that replays exactly
// (Float64 is rounded to the 16 bits the encoding keeps).
type recordingChooser struct {
	rng *rand.Rand
	b   []byte
}

func (r *recordingChooser) put(v uint64, k int) {
	for i := 0; i < k; i++ {
		r.b = append(r.b, byte(v>>(8*i)))
	}
}

func (r *recordingChooser) Intn(n int) int {
	v := r.rng.Intn(n)
	r.put(uint64(v), 4)
	return v
}

func (r *recordingChooser) Int63n(n int64) int64 {
	v := r.rng.Int63n(n)
	r.put(uint64(v), 4)
	return v
}

func (r *recordingChooser) Float64() float64 {
	v := uint64(r.rng.Float64() * (1 << 16))
	r.put(v, 2)
	return float64(v) / (1 << 16)
}

// fuzzManagerOps runs the operations that data encodes: the first byte picks
// the policy, writeback policy and whether writeback is split per device;
// the rest are runManagerOps' choices over every operation kind.
func fuzzManagerOps(data []byte) error {
	var head byte
	if len(data) > 0 {
		head, data = data[0], data[1:]
	}
	pols, wbs := PolicyNames(), WritebackPolicyNames()
	policy := pols[int(head)%len(pols)]
	wb := wbs[int(head>>2)%len(wbs)]
	src := &byteChooser{b: data}
	return runManagerOps(policy, wb, head&0x10 != 0, src, allManagerOps, src.more)
}

// FuzzManagerOps drives every Manager operation from fuzz bytes under every
// cache and writeback policy, with and without per-device writeback domains:
// CheckInvariants, the block free list included, must hold after every step.
// A block recycled while still linked, or linked after it was recycled,
// breaks it. Seeds: TestPropertyIOControllerConservation's sequences for
// seeds 1-5 under each policy pair, which replay through the same six
// operation kinds.
func FuzzManagerOps(f *testing.F) {
	pols, wbs := PolicyNames(), WritebackPolicyNames()
	for pi := range pols {
		for wi := range wbs {
			for seed := int64(1); seed <= 5; seed++ {
				rec := &recordingChooser{rng: rand.New(rand.NewSource(seed))}
				head := byte(pi | wi<<2)
				if err := runManagerOps(pols[pi], wbs[wi], false, rec, conservationOps, fixedSteps(60)); err != nil {
					f.Fatalf("recording %s/%s seed %d: %v", pols[pi], wbs[wi], seed, err)
				}
				f.Add(append([]byte{head}, rec.b...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := fuzzManagerOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// ---------------------------------------------------------------------------
// Oracles: brute-force rescans of the main lists, independent of the
// incremental index structures (dirty sublists, per-file chains, expiry
// queue, per-file counters) they validate. They follow the policy's list
// set and scan order, so they stay valid for every registered policy.

func oracleEvictable(m *Manager, exclude string) int64 {
	var n int64
	for _, l := range m.pol.EvictableLists() {
		l.Each(func(b *Block) bool {
			if !b.Dirty && b.File != exclude && !m.writeProtected(b.File) {
				n += b.Size
			}
			return true
		})
	}
	return n
}

func oracleNextDirty(m *Manager) *Block {
	var found *Block
	for _, l := range m.pol.Lists() {
		l.Each(func(b *Block) bool {
			if b.Dirty {
				found = b
				return false
			}
			return true
		})
		if found != nil {
			return found
		}
	}
	return nil
}

func oracleNextExpired(m *Manager, now float64) *Block {
	var found *Block
	for _, l := range m.pol.Lists() {
		l.Each(func(b *Block) bool {
			if b.Dirty && now-b.Entry >= m.cfg.DirtyExpire {
				found = b
				return false
			}
			return true
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// oracleDirtyStats rescans the main lists for the global dirty minimum
// Entry, per-file dirty bytes and per-file minimum Entries — the reference
// the writeback-policy selection checks compare against.
func oracleDirtyStats(m *Manager) (minEntry float64, any bool, fileBytes map[string]int64, fileMin map[string]float64) {
	fileBytes = map[string]int64{}
	fileMin = map[string]float64{}
	for _, l := range m.pol.Lists() {
		l.Each(func(b *Block) bool {
			if !b.Dirty {
				return true
			}
			if !any || b.Entry < minEntry {
				minEntry, any = b.Entry, true
			}
			if cur, ok := fileMin[b.File]; !ok || b.Entry < cur {
				fileMin[b.File] = b.Entry
			}
			fileBytes[b.File] += b.Size
			return true
		})
	}
	return
}

// checkWritebackSelection verifies the writeback policy's NextDirty and
// NextExpired against brute-force rescans. list-order has an exact order
// oracle; the other policies are checked against the properties that define
// them (global minimum Entry for oldest-first expiry and selection, a
// file's own oldest dirty block for the file-queue policies, the
// largest-backlog file for proportional) — the exact structures behind them
// are verified block by block by CheckInvariants.
func checkWritebackSelection(t *testing.T, m *Manager, now float64, seed int64, op int) bool {
	wbName := m.WritebackPolicy().Name()
	gotDirty := m.WritebackPolicy().NextDirty(m)
	gotExp := m.WritebackPolicy().NextExpired(m, now)
	minEntry, anyDirty, fileBytes, fileMin := oracleDirtyStats(m)

	if (gotDirty == nil) != !anyDirty {
		t.Logf("seed %d op %d: NextDirty = %v with anyDirty=%v", seed, op, gotDirty, anyDirty)
		return false
	}
	if gotDirty != nil && !gotDirty.Dirty {
		t.Logf("seed %d op %d: NextDirty returned clean block %v", seed, op, gotDirty)
		return false
	}
	switch wbName {
	case "list-order":
		if want := oracleNextDirty(m); gotDirty != want {
			t.Logf("seed %d op %d: NextDirty = %v, oracle %v", seed, op, gotDirty, want)
			return false
		}
		if want := oracleNextExpired(m, now); gotExp != want {
			t.Logf("seed %d op %d: NextExpired = %v, oracle %v", seed, op, gotExp, want)
			return false
		}
	case "oldest-first":
		if gotDirty != nil && gotDirty.Entry != minEntry {
			t.Logf("seed %d op %d: NextDirty entry %v, oldest %v", seed, op, gotDirty.Entry, minEntry)
			return false
		}
	case "file-rr":
		if gotDirty != nil && gotDirty.Entry != fileMin[gotDirty.File] {
			t.Logf("seed %d op %d: NextDirty %v is not its file's oldest (%v)",
				seed, op, gotDirty, fileMin[gotDirty.File])
			return false
		}
	case "proportional":
		if gotDirty != nil {
			var maxBytes int64
			for _, v := range fileBytes {
				if v > maxBytes {
					maxBytes = v
				}
			}
			if fileBytes[gotDirty.File] != maxBytes {
				t.Logf("seed %d op %d: NextDirty file %s holds %d dirty, max is %d",
					seed, op, gotDirty.File, fileBytes[gotDirty.File], maxBytes)
				return false
			}
			if gotDirty.Entry != fileMin[gotDirty.File] {
				t.Logf("seed %d op %d: NextDirty %v is not its file's oldest", seed, op, gotDirty)
				return false
			}
		}
	}
	if wbName != "list-order" {
		// All non-list-order policies expire globally oldest-first.
		expired := anyDirty && now-minEntry >= m.cfg.DirtyExpire
		if (gotExp != nil) != expired {
			t.Logf("seed %d op %d: NextExpired = %v with expired=%v", seed, op, gotExp, expired)
			return false
		}
		if gotExp != nil && gotExp.Entry != minEntry {
			t.Logf("seed %d op %d: NextExpired entry %v, oldest %v", seed, op, gotExp.Entry, minEntry)
			return false
		}
	}
	if gotExp != nil && (!gotExp.Dirty || now-gotExp.Entry < m.cfg.DirtyExpire) {
		t.Logf("seed %d op %d: NextExpired returned unexpired or clean block %v", seed, op, gotExp)
		return false
	}
	return true
}

func oracleFileBytes(l *List, file string) (bytes, clean int64) {
	l.Each(func(b *Block) bool {
		if b.File == file {
			bytes += b.Size
			if !b.Dirty {
				clean += b.Size
			}
		}
		return true
	})
	return
}

// TestPropertyIndexedStructures drives randomized operation sequences —
// including invalidation and the open-for-write eviction heuristic — once
// per registered policy, and after every operation cross-checks the
// incrementally maintained index structures against brute-force rescans of
// the main lists:
//
//   - Evictable (clean/evictable byte counters) vs a full walk of the
//     policy's evictable lists, for the empty exclusion, a random file, and
//     an open-for-write file;
//   - nextDirty (dirty-sublist front peeks) vs a full list-set scan;
//   - nextExpired (expiry-queue head + dirty-sublist walk) vs a full scan;
//   - per-file byte/clean counters vs filtered list walks;
//   - CheckInvariants, which additionally verifies the dirty sublists,
//     per-file chains, expiry queue, policy structure and writeback-policy
//     structure block by block.
//
// It runs once per (replacement policy × writeback policy) registry cell,
// with the writeback selection checked against per-policy oracles
// (checkWritebackSelection).
func TestPropertyIndexedStructures(t *testing.T) {
	for _, policy := range PolicyNames() {
		for _, wb := range WritebackPolicyNames() {
			policy, wb := policy, wb
			t.Run(policy+"/"+wb, func(t *testing.T) {
				t.Parallel()
				testIndexedStructures(t, policy, wb)
			})
		}
	}
}

func testIndexedStructures(t *testing.T, policy, wb string) {
	files := []string{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(100000)
		cfg.EvictExcludesOpenWrites = rng.Intn(2) == 0
		cfg.Policy = policy
		cfg.Writeback = wb
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := newFakeCaller()
		var anonHeld int64
		openWrites := map[string]int{}
		for i := 0; i < 250; i++ {
			c.now += rng.Float64() * 5
			file := files[rng.Intn(len(files))]
			amt := int64(1 + rng.Intn(4000))
			switch rng.Intn(10) {
			case 0:
				if free := m.Free(); free > 0 {
					if amt > free {
						amt = free
					}
					m.AddToCache(file, amt, c.now)
				}
			case 1:
				if free := m.Free(); free > 0 {
					if amt > free {
						amt = free
					}
					m.WriteToCache(c, file, amt)
				}
			case 2:
				m.Evict(amt, file)
			case 3:
				m.Flush(c, amt)
			case 4:
				m.FlushExpiredDomain(c, 0)
			case 5:
				if cached := m.Cached(file); cached > 0 {
					m.CacheRead(c, file, 1+rng.Int63n(cached))
				}
			case 6:
				m.InvalidateFile(file)
			case 7:
				if rng.Intn(2) == 0 || openWrites[file] == 0 {
					m.OpenWrite(file)
					openWrites[file]++
				} else {
					m.CloseWrite(file)
					openWrites[file]--
				}
			case 8:
				if m.Free() > 0 {
					n := 1 + rng.Int63n(m.Free())
					if m.UseAnon(n) == 0 {
						anonHeld += n
					} else {
						m.ReleaseAnon(n)
					}
				}
			case 9:
				if anonHeld > 0 {
					n := 1 + rng.Int63n(anonHeld)
					m.ReleaseAnon(n)
					anonHeld -= n
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
			for _, excl := range []string{"", file, files[rng.Intn(len(files))]} {
				if got, want := m.Evictable(excl), oracleEvictable(m, excl); got != want {
					t.Logf("seed %d op %d: Evictable(%q) = %d, oracle %d", seed, i, excl, got, want)
					return false
				}
			}
			if !checkWritebackSelection(t, m, c.now, seed, i) {
				return false
			}
			for _, l := range m.pol.Lists() {
				bytes, clean := oracleFileBytes(l, file)
				if l.FileBytes(file) != bytes || l.FileCleanBytes(file) != clean {
					t.Logf("seed %d op %d: list %s file %s counters %d/%d, oracle %d/%d",
						seed, i, l.Name(), file, l.FileBytes(file), l.FileCleanBytes(file), bytes, clean)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
