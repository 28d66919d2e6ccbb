package core

import (
	"fmt"
	"math"
)

func newLFUPolicy() Policy {
	p := &lfuPolicy{}
	for i := range p.buckets {
		p.buckets[i] = NewList(fmt.Sprintf("lfu%d", i))
		p.lists = append(p.lists, p.buckets[i])
	}
	return p
}

// lfuDefaultHalfLife is the frequency-decay half-life in simulated seconds:
// every half-life that passes without an access halves a block's effective
// frequency, so bursts of historical popularity age out instead of pinning
// blocks forever (plain LFU's classic failure mode).
const lfuDefaultHalfLife = 60

// lfuBuckets is the number of frequency classes. Four levels (0, 1, 2-3,
// ≥4 effective accesses) are enough to separate streaming blocks from hot
// ones while keeping every operation O(touched blocks).
const lfuBuckets = 4

// lfuPolicy is a segmented frequency-decay policy (the LearnedCache-style
// axis: frequency, not recency, orders victims). Blocks live in one of
// lfuBuckets lists by effective access frequency; eviction scans bucket 0
// first, so the least frequently used clean block goes first. Frequencies
// decay lazily: each block stores the epoch of its last access, and the
// stored count is halved once per elapsed half-life when the block is next
// touched. Bucket assignment is updated at touch time too, so a cold block's
// placement can overstate its current frequency until it is either touched
// (and demoted) or reached by the eviction scan — the standard lazy-decay
// approximation, chosen because eager decay would cost a full-cache sweep.
type lfuPolicy struct {
	buckets [lfuBuckets]*List
	lists   []*List
	touched []*Block // ReadHit's scratch, kept so a hit allocates nothing
}

func (p *lfuPolicy) Name() string            { return "lfu" }
func (p *lfuPolicy) Lists() []*List          { return p.lists }
func (p *lfuPolicy) EvictableLists() []*List { return p.lists }

// epochAt converts a simulated time into a decay epoch.
func (p *lfuPolicy) epochAt(now float64) int32 {
	return int32(now / lfuDefaultHalfLife)
}

// effFreq returns b's frequency decayed to the given epoch.
func (p *lfuPolicy) effFreq(b *Block, epoch int32) int32 {
	shift := epoch - b.freqEpoch
	if shift <= 0 {
		return b.freq
	}
	if shift >= 31 {
		return 0
	}
	return b.freq >> uint(shift)
}

// bucketFor maps a frequency to its bucket: 0, 1, 2-3, ≥4.
func bucketFor(freq int32) int {
	switch {
	case freq <= 0:
		return 0
	case freq == 1:
		return 1
	case freq <= 3:
		return 2
	default:
		return 3
	}
}

// Insert places new blocks in bucket 0 with zero frequency: a block earns
// its keep through hits, never through insertion.
func (p *lfuPolicy) Insert(m *Manager, b *Block) {
	b.freq = 0
	b.freqEpoch = p.epochAt(b.Entry)
	p.buckets[0].PushBack(b)
}

// ReadHit touches amount bytes of the file's blocks, lowest bucket first
// (the same least-valuable-first order eviction uses), bumping each touched
// block's decayed frequency and moving it to the tail of its new bucket.
// Collection happens before any mutation so a promoted block cannot be
// re-encountered — and re-counted — by the same hit.
func (p *lfuPolicy) ReadHit(m *Manager, file string, amount int64, now float64) {
	remaining := amount
	touched := p.touched[:0]
	for _, l := range p.buckets {
		for b := l.fileFront(file); b != nil && remaining > 0; b = b.fnext {
			touched = append(touched, b)
			remaining -= b.Size
		}
		if remaining <= 0 {
			break
		}
	}
	epoch := p.epochAt(now)
	for _, b := range touched {
		f := p.effFreq(b, epoch) + 1
		b.freq, b.freqEpoch = f, epoch
		if nb := p.buckets[bucketFor(f)]; nb != b.owner {
			b.owner.Remove(b)
			nb.PushBack(b)
		}
	}
	clear(touched)
	p.touched = touched[:0]
}

// EvictClean scans buckets lowest-frequency-first, oldest placement first
// within each bucket.
func (p *lfuPolicy) EvictClean(m *Manager, amount int64, exclude string) int64 {
	return scanEvict(m, p.lists, amount, exclude)
}

func (p *lfuPolicy) Rebalance(*Manager) {}

// ShiftTimes rebases the lazy-decay epochs by a clock shift of delta
// simulated seconds (TimeShiftablePolicy). Epochs are half-life-sized
// buckets of absolute time, so a uniform time warp moves every block's
// epoch by the same whole-bucket count; the sub-bucket remainder is folded
// into the next decay, the same rounding lazy decay always applies.
func (p *lfuPolicy) ShiftTimes(delta float64) {
	shift := int32(math.Floor(delta / lfuDefaultHalfLife))
	if shift == 0 {
		return
	}
	for _, l := range p.lists {
		for b := l.Front(); b != nil; b = b.next {
			b.freqEpoch += shift
		}
	}
}

// CheckInvariants verifies every block sits in the bucket its stored
// frequency maps to (decay is lazy, so the stored — not the effective —
// frequency is the placement key).
func (p *lfuPolicy) CheckInvariants(*Manager) error {
	for i, l := range p.buckets {
		for b := l.Front(); b != nil; b = b.next {
			if bucketFor(b.freq) != i {
				return fmt.Errorf("lfu: block %v with freq %d in bucket %d", b, b.freq, i)
			}
		}
	}
	return nil
}
