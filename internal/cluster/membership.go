package cluster

import (
	"sort"
	"sync"
)

// Member is one attestd daemon in the cluster: a stable name (the ring
// hashes names, so renaming a daemon moves its devices) and the address
// agents are redirected to and peers dial for state transfer.
type Member struct {
	Name string
	Addr string
}

// Membership is the cluster view one daemon routes by: the configured
// member set minus the members currently marked down. Every mutation
// rebuilds an immutable Ring over the live members, so ownership lookups
// are a read-lock and a binary search. It is safe for concurrent use and
// may be shared — in-process clusters (the server tests) hand
// one Membership to every daemon so a single MarkDown is the moral
// equivalent of every prober noticing the death at once.
type Membership struct {
	mu      sync.RWMutex
	vnodes  int
	members map[string]Member
	down    map[string]bool
	ring    *Ring
	version uint64
}

// NewMembership builds the view with every member live. vnodes <= 0 uses
// DefaultVnodes.
func NewMembership(vnodes int, members ...Member) *Membership {
	m := &Membership{
		vnodes:  vnodes,
		members: make(map[string]Member, len(members)),
		down:    make(map[string]bool),
	}
	for _, mem := range members {
		m.members[mem.Name] = mem
	}
	m.rebuild()
	return m
}

// rebuild recomputes the ring over live members. Callers hold mu.
func (m *Membership) rebuild() {
	names := make([]string, 0, len(m.members))
	for name := range m.members {
		if !m.down[name] {
			names = append(names, name)
		}
	}
	m.ring = NewRing(m.vnodes, names)
	m.version++
}

// Add introduces (or re-addresses) a member, live, and rebalances the
// ring. Adding member N+1 moves ~1/(N+1) of the keyspace to it and
// nothing between the incumbents (pinned by TestRingRebalanceMinimality).
func (m *Membership) Add(mem Member) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.members[mem.Name] = mem
	delete(m.down, mem.Name)
	m.rebuild()
}

// MarkDown removes name from the live set (its keyspace falls to each
// key's successor). Unknown names are ignored.
func (m *Membership) MarkDown(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.members[name]; !ok || m.down[name] {
		return
	}
	m.down[name] = true
	m.rebuild()
}

// MarkUp returns a down member to the live set.
func (m *Membership) MarkUp(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.members[name]; !ok || !m.down[name] {
		return
	}
	delete(m.down, name)
	m.rebuild()
}

// Owner returns the live member owning key.
func (m *Membership) Owner(key string) (Member, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	name, ok := m.ring.Owner(key)
	if !ok {
		return Member{}, false
	}
	return m.members[name], true
}

// Successor returns the member that would own key if the current owner
// left the ring — the replication target for key's verifier state. ok is
// false when the ring has fewer than two live members.
func (m *Membership) Successor(key string) (Member, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	owners := m.ring.OwnersN(key, 2)
	if len(owners) < 2 {
		return Member{}, false
	}
	return m.members[owners[1]], true
}

// Alive returns the live members, sorted by name.
func (m *Membership) Alive() []Member {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Member, 0, len(m.members))
	for name, mem := range m.members {
		if !m.down[name] {
			out = append(out, mem)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the member record for name, live or down.
func (m *Membership) Lookup(name string) (Member, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	mem, ok := m.members[name]
	return mem, ok
}

// Version increments on every membership change; pollers use it to notice
// rebalances without diffing member lists.
func (m *Membership) Version() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version
}
