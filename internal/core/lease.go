package core

import (
	"errors"
	"sync"

	"kaas/internal/shm"
)

// errLeaseRevoked is answered to an invoke naming a lease that was
// revoked (drain, breaker-open, or disconnect). It maps to the wire
// protocol's LEASE_REVOKED code and is retryable: the client drops the
// stale lease and resends the same request in-band, invisibly to its
// caller.
var errLeaseRevoked = errors.New("core: arena lease revoked; resend in-band")

// leaseOwner is the connection-side handle a lease is granted to. The
// mux session implements it; revocation uses it to push MsgLeaseRevoke
// notices so clients stop using withdrawn windows without waiting to
// trip over a stale-lease error.
type leaseOwner interface {
	sendLeaseRevoke(id uint64)
}

// leaseTable tracks which connection owns each arena lease. Leases are
// connection-scoped: a lease may serve many streams on its connection
// (the client pools it across invocations) but never crosses
// connections, and every lease a connection holds is revoked — its
// bytes returned to the arena budget — when the connection closes, the
// endpoint drains, or a device breaker opens.
type leaseTable struct {
	arena *shm.ArenaPool

	mu     sync.Mutex
	owners map[leaseOwner]map[uint64]*shm.Lease
}

func newLeaseTable(arena *shm.ArenaPool) *leaseTable {
	return &leaseTable{
		arena:  arena,
		owners: make(map[leaseOwner]map[uint64]*shm.Lease),
	}
}

// grant acquires an arena lease for the connection.
func (lt *leaseTable) grant(o leaseOwner, bytes int64) (*shm.Lease, error) {
	l, err := lt.arena.Acquire(bytes)
	if err != nil {
		return nil, err
	}
	lt.mu.Lock()
	m := lt.owners[o]
	if m == nil {
		m = make(map[uint64]*shm.Lease)
		lt.owners[o] = m
	}
	m[l.ID()] = l
	lt.mu.Unlock()
	return l, nil
}

// lookup resolves a lease ID against the connection that presents it; a
// lease granted to another connection does not resolve.
func (lt *leaseTable) lookup(o leaseOwner, id uint64) (*shm.Lease, bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l, ok := lt.owners[o][id]
	return l, ok
}

// releaseOwner revokes every lease the connection holds without
// notification — the connection is gone, so its client cannot be told.
// This is the disconnect-mid-lease path that returns the bytes to the
// arena budget. It reports how many leases were released.
func (lt *leaseTable) releaseOwner(o leaseOwner) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	m := lt.owners[o]
	delete(lt.owners, o)
	lt.revokeLocked(m)
	return len(m)
}

// revokeAll withdraws every lease on every connection and notifies each
// owner with a MsgLeaseRevoke frame, used on drain and breaker-open.
// Clients fall back to in-band transfer transparently. It reports how
// many leases were revoked.
func (lt *leaseTable) revokeAll() int {
	type grant struct {
		o  leaseOwner
		id uint64
	}
	lt.mu.Lock()
	var all []grant
	for o, m := range lt.owners {
		for id := range m {
			all = append(all, grant{o: o, id: id})
		}
		lt.revokeLocked(m)
		delete(lt.owners, o)
	}
	lt.mu.Unlock()
	for _, g := range all {
		g.o.sendLeaseRevoke(g.id)
	}
	return len(all)
}

// revokeLocked revokes leases in the arena while lt.mu is held (lock
// order lt.mu, then the arena's), so no lookup can observe a lease that
// has left the table but is not yet marked revoked in the arena — that
// gap answered a stale-lease invoke with an untyped "unknown lease"
// error instead of the retryable errLeaseRevoked.
func (lt *leaseTable) revokeLocked(m map[uint64]*shm.Lease) {
	for id := range m {
		lt.arena.Revoke(id)
	}
}
