package shm

import (
	"fmt"
	"sync"
)

// MinLeaseBytes is the smallest arena window granted: requests are
// rounded up to a power-of-two size class no smaller than this, so
// slabs returned to the pool are reusable across payload sizes.
const MinLeaseBytes = 4 << 10

// ErrRevoked indicates the lease was revoked before the operation.
var ErrRevoked = fmt.Errorf("shm: lease revoked")

// Supported reports whether this host can back tensor arenas, with a
// human-readable detail. The simulated shared memory is in-process and
// always available; the probe exists so callers (make bench-dataplane)
// have a uniform "skip gracefully when the host lacks shm" seam that a
// real mmap-backed implementation would fail on.
func Supported() (bool, string) {
	return true, "in-process simulated shared memory"
}

// ArenaPool is a byte-budgeted pool of tensor arena slabs handed out as
// leases: a client negotiates a lease once, then moves payloads through
// the leased window by handle with no per-invocation allocation. Slabs
// are power-of-two size classes; a revoked or released lease returns
// its slab to a free list, so steady-state traffic allocates nothing.
// It models the process-shared arena mapping both endpoints of a
// connection see (rFaaS-style leased remote-memory windows).
//
// Revocation is refcount-safe: Revoke marks the lease dead immediately
// (new Retains fail) but the slab rejoins the free list only when
// in-flight users release it, so a server can revoke mid-invocation
// without yanking memory out from under a running kernel.
type ArenaPool struct {
	mu       sync.Mutex
	capacity int64
	granted  int64              // bytes held by live leases
	pooled   int64              // bytes parked on the free lists
	free     map[int64][][]byte // size class -> free slabs
	leases   map[uint64]*Lease  // live leases; a lease leaves only through Revoke
	seq      uint64             // last lease ID issued; IDs increase from 1

	grants      uint64
	reuses      uint64
	revocations uint64
}

// NewArenaPool creates a pool with the given total byte budget
// (0 means unlimited).
func NewArenaPool(capacity int64) *ArenaPool {
	return &ArenaPool{
		capacity: capacity,
		free:     make(map[int64][][]byte),
		leases:   make(map[uint64]*Lease),
	}
}

// Lease is a granted window into an arena slab.
type Lease struct {
	id   uint64
	pool *ArenaPool
	buf  []byte

	// guarded by pool.mu
	refs     int
	isDead   bool
	returned bool
}

// classFor rounds n up to the pool's power-of-two size class.
func classFor(n int64) int64 {
	c := int64(MinLeaseBytes)
	for c < n {
		c <<= 1
	}
	return c
}

// Acquire grants a lease over a window of at least bytes capacity,
// reusing a pooled slab of the same size class when one is free.
func (p *ArenaPool) Acquire(bytes int64) (*Lease, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("shm: lease size %d must be positive", bytes)
	}
	class := classFor(bytes)
	p.mu.Lock()
	defer p.mu.Unlock()

	var buf []byte
	if slabs := p.free[class]; len(slabs) > 0 {
		buf = slabs[len(slabs)-1]
		p.free[class] = slabs[:len(slabs)-1]
		p.pooled -= class
		p.reuses++
	} else {
		if p.capacity > 0 && p.granted+p.pooled+class > p.capacity {
			// Evict idle slabs of other classes before refusing.
			p.evictPooledLocked(p.granted + p.pooled + class - p.capacity)
		}
		if p.capacity > 0 && p.granted+p.pooled+class > p.capacity {
			return nil, fmt.Errorf("%w: lease wants %d, granted %d of %d", ErrNoSpace, class, p.granted, p.capacity)
		}
		buf = make([]byte, class)
	}
	p.seq++
	l := &Lease{id: p.seq, pool: p, buf: buf}
	p.leases[l.id] = l
	p.granted += class
	p.grants++
	return l, nil
}

// evictPooledLocked drops free slabs until at least need bytes of
// budget are recovered or the free lists are empty.
func (p *ArenaPool) evictPooledLocked(need int64) {
	for class, slabs := range p.free {
		for len(slabs) > 0 && need > 0 {
			slabs = slabs[:len(slabs)-1]
			p.pooled -= class
			need -= class
		}
		p.free[class] = slabs
		if need <= 0 {
			return
		}
	}
}

// Get returns the live lease with the given ID.
func (p *ArenaPool) Get(id uint64) (*Lease, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.leases[id]
	return l, ok
}

// WasRevoked reports whether id names a lease that existed and was
// revoked — the stale-lease case a client can recover from by falling
// back to in-band transfer, as opposed to an ID that was never granted.
// IDs are issued in increasing order and leave the live set only through
// Revoke, so every issued ID that is no longer live was revoked; no
// per-lease tombstone is kept.
func (p *ArenaPool) WasRevoked(id uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, live := p.leases[id]
	return id > 0 && id <= p.seq && !live
}

// Revoke withdraws a lease. The budget is credited as soon as no
// in-flight user holds a reference; the slab then rejoins the free
// list. Revoking an unknown ID is a no-op returning false.
func (p *ArenaPool) Revoke(id uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.leases[id]
	if !ok {
		return false
	}
	delete(p.leases, id)
	p.revocations++
	l.isDead = true
	if l.refs == 0 {
		p.returnSlabLocked(l)
	}
	return true
}

// RevokeAll withdraws every live lease and returns their IDs, used on
// drain and teardown.
func (p *ArenaPool) RevokeAll() []uint64 {
	p.mu.Lock()
	ids := make([]uint64, 0, len(p.leases))
	for id := range p.leases {
		ids = append(ids, id)
	}
	p.mu.Unlock()
	for _, id := range ids {
		p.Revoke(id)
	}
	return ids
}

// returnSlabLocked credits the lease's bytes back to the budget and
// parks its slab for reuse.
func (p *ArenaPool) returnSlabLocked(l *Lease) {
	if l.returned {
		return
	}
	l.returned = true
	class := int64(cap(l.buf))
	p.granted -= class
	p.free[class] = append(p.free[class], l.buf[:cap(l.buf)])
	p.pooled += class
}

// ID returns the lease's pool-unique identifier.
func (l *Lease) ID() uint64 { return l.id }

// Cap returns the window capacity in bytes.
func (l *Lease) Cap() int64 { return int64(cap(l.buf)) }

// Bytes returns the leased window. Both endpoints of a connection see
// the same backing array — that sharing is the zero-copy transfer.
func (l *Lease) Bytes() []byte { return l.buf[:cap(l.buf)] }

// Retain pins the lease for an in-flight use so a concurrent Revoke
// cannot recycle the slab mid-kernel. It fails once the lease is dead.
func (l *Lease) Retain() error {
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	if l.isDead {
		return ErrRevoked
	}
	l.refs++
	return nil
}

// Release drops a Retain pin. If the lease was revoked while pinned,
// the last Release returns the slab to the pool.
func (l *Lease) Release() {
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	if l.refs > 0 {
		l.refs--
	}
	if l.isDead && l.refs == 0 {
		l.pool.returnSlabLocked(l)
	}
}

// ArenaStats is a snapshot of a pool's accounting.
type ArenaStats struct {
	Capacity    int64  // byte budget (0 = unlimited)
	Granted     int64  // bytes held by live leases
	Pooled      int64  // bytes parked on free lists
	Active      int    // live leases
	Grants      uint64 // leases granted since creation
	Reuses      uint64 // grants served from a pooled slab (no allocation)
	Revocations uint64 // leases revoked
}

// Stats returns the pool's current accounting snapshot.
func (p *ArenaPool) Stats() ArenaStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ArenaStats{
		Capacity:    p.capacity,
		Granted:     p.granted,
		Pooled:      p.pooled,
		Active:      len(p.leases),
		Grants:      p.grants,
		Reuses:      p.reuses,
		Revocations: p.revocations,
	}
}
