package store

// Presence filter: a per-store summary of which enumeration indices are
// stored, consulted before the sparse index so a definite miss skips
// manifest probing and block inflation entirely. Small domains (n <= 4
// comfortably, and anything up to presenceBitmapMax bits) get an exact
// bitmap; larger domains get a Bloom filter sized from the store's
// entry count — no false negatives in either form, so the filter is
// transparent to lookup semantics and only trims work on misses.

import (
	"errors"
	"fmt"
	"sync/atomic"
)

const (
	// presenceBitmapMax bounds the exact-bitmap form: domains up to
	// 2^26 indices cost at most 8 MiB of bits.
	presenceBitmapMax = 1 << 26

	// presenceBloomBitsPerEntry sizes the Bloom form (~10 bits/entry
	// with 4 hashes gives ~1-2% false positives).
	presenceBloomBitsPerEntry = 10
	presenceBloomHashes       = 4
	presenceBloomMinBits      = 1 << 12
)

// presenceFilter answers "might index i be stored?" with no false
// negatives. Writes happen under the store mutex; reads are lock-free
// on an immutable word slice via atomic bit loads.
type presenceFilter struct {
	exact bool
	words []atomic.Uint64
	mask  uint64 // bloom: len(words)*64 - 1 (power of two bits)
}

// newPresenceFilter sizes a filter for a domain of the given size
// holding about entries stored indices.
func newPresenceFilter(domain, entries uint64) *presenceFilter {
	if domain <= presenceBitmapMax {
		return &presenceFilter{
			exact: true,
			words: make([]atomic.Uint64, (domain+63)/64),
		}
	}
	bits := uint64(presenceBloomMinBits)
	for bits < entries*presenceBloomBitsPerEntry {
		bits <<= 1
	}
	return &presenceFilter{
		words: make([]atomic.Uint64, bits/64),
		mask:  bits - 1,
	}
}

// mix is a splitmix64-style finalizer: the Bloom probe sequence derives
// from successive odd multiples of the mixed index.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (p *presenceFilter) add(idx uint64) {
	if p.exact {
		w := &p.words[idx/64]
		for {
			old := w.Load()
			if w.CompareAndSwap(old, old|1<<(idx%64)) {
				return
			}
		}
	}
	h := mix(idx)
	d := mix(idx ^ 0x9e3779b97f4a7c15)
	for i := 0; i < presenceBloomHashes; i++ {
		bit := (h + uint64(i)*d) & p.mask
		w := &p.words[bit/64]
		for {
			old := w.Load()
			if w.CompareAndSwap(old, old|1<<(bit%64)) {
				break
			}
		}
	}
}

// mayContain reports whether idx could be stored. False is definitive:
// an index beyond the exact bitmap's domain is never stored.
func (p *presenceFilter) mayContain(idx uint64) bool {
	if p.exact {
		return idx/64 < uint64(len(p.words)) && p.words[idx/64].Load()&(1<<(idx%64)) != 0
	}
	h := mix(idx)
	d := mix(idx ^ 0x9e3779b97f4a7c15)
	for i := 0; i < presenceBloomHashes; i++ {
		bit := (h + uint64(i)*d) & p.mask
		if p.words[bit/64].Load()&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// LoadPresence builds (or rebuilds) the store's presence filter from
// every block. Each block is read and checked as its first load in a
// generation is (codec.load) on the merge's worker pool, and lands in
// manifest order, so the error returned is the first in that order.
// Lookups afterwards answer definite misses without touching the
// sparse index or inflating blocks; PutNew keeps the filter current.
// The serving layer loads one per mounted store.
func (s *Store) LoadPresence() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		return errors.New("store: closed")
	}
	var entries uint64
	for _, b := range s.man.Blocks {
		entries += uint64(b.Entries)
	}
	n, domain := s.man.N, s.domainSizeLocked()
	p := newPresenceFilter(domain, entries)
	// The lander marks blocks parsed while this goroutine holds mu and
	// waits for it, so nothing else reads parsedBlocks meanwhile.
	pool := newBlockPool(s.data, func(job *blockJob) error {
		s.parsedBlocks[job.meta.Offset] = struct{}{}
		for _, be := range job.entries {
			if be.idx >= domain {
				return fmt.Errorf("%w: block at %d: entry index %d beyond the n=%d domain",
					ErrCorrupt, job.meta.Offset, be.idx, n)
			}
			p.add(be.idx)
		}
		return nil
	})
	for _, b := range s.man.Blocks {
		if pool.failed.Load() {
			break
		}
		pool.submit(&blockJob{check: true, meta: b})
	}
	if err := pool.wait(); err != nil {
		return err
	}
	s.presence = p
	return nil
}

// PresenceSkips reports how many lookups the presence filter answered
// as definite misses without touching block data.
func (s *Store) PresenceSkips() uint64 {
	return s.presenceSkips.Load()
}
