package server

import (
	"sync"
)

// VerifierStore is the pluggable backend holding per-device verifier
// state. The daemon routes every lookup, insert and removal through this
// interface; the default implementation (NewShardedStore) is the striped
// in-memory map the daemon has always used, and cluster mode's state
// handoff is built on Remove returning the evicted entry.
//
// Contract:
//   - Get/Put/Remove are linearizable per device ID; Put is
//     first-insert-wins (a losing racer receives the winner, inserted ==
//     false) because the winner's entry carries the device's live
//     nonce/counter stream.
//   - The store guards only its own map structure. Each deviceState
//     carries its own mutex for verifier operations, so a store
//     implementation adds nothing to the per-frame serving path — the
//     0-alloc gate-reject pins in alloc_test.go hold over any store.
//   - Range visits entries without internal locks held and tolerates
//     concurrent mutation (entries inserted during a sweep may or may not
//     be visited).
//
// Entries are package-private (a *deviceState embeds the verifier with its
// keyed MACs, about 1.2 KiB, and shares the daemon's golden image), so
// implementations currently live in this package; the interface is the
// seam a persistent or remote backend would slot into.
type VerifierStore interface {
	// Get returns the entry for deviceID, if present.
	Get(deviceID string) (*deviceState, bool)
	// Put inserts dev if deviceID is absent. It returns the entry now in
	// the store and whether the insert happened; on inserted == false the
	// returned entry is the incumbent and dev must be discarded.
	Put(deviceID string, dev *deviceState) (entry *deviceState, inserted bool)
	// Remove deletes and returns the entry, if present — the handoff
	// primitive: the caller owns the returned entry's final snapshot.
	Remove(deviceID string) (*deviceState, bool)
	// Range calls fn for each entry until fn returns false.
	Range(fn func(*deviceState) bool)
	// Len reports the number of entries.
	Len() int
}

// storeShard is one stripe of the sharded store: a mutex and the slice of
// the device map hashed to it. The stripe mutex guards only the map;
// devices on different stripes — and verifier operations on the same
// stripe — proceed concurrently.
type storeShard struct {
	mu      sync.Mutex
	devices map[string]*deviceState
}

// shardedStore is the default VerifierStore: an FNV-striped in-memory
// map. Striping bounds insert/lookup contention under connection storms;
// per-device verifier work never touches a stripe mutex at all.
type shardedStore struct {
	shards []*storeShard
}

// NewShardedStore builds the striped in-memory store (the default when
// Config.Store is nil). stripes <= 0 uses 16.
func NewShardedStore(stripes int) VerifierStore {
	if stripes <= 0 {
		stripes = 16
	}
	st := &shardedStore{shards: make([]*storeShard, stripes)}
	for i := range st.shards {
		st.shards[i] = &storeShard{devices: make(map[string]*deviceState)}
	}
	return st
}

// shardFor hashes the device ID with FNV-1a inlined over the string (the
// internal/cluster ring does the same for its 64-bit variant): a
// hash.Hash32 plus the []byte(deviceID) conversion would cost two heap
// allocations on every Get/Put/Remove, and Get sits on the serving path
// of every frame's device lookup.
func (st *shardedStore) shardFor(deviceID string) *storeShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(deviceID); i++ {
		h ^= uint32(deviceID[i])
		h *= prime32
	}
	return st.shards[h%uint32(len(st.shards))]
}

func (st *shardedStore) Get(deviceID string) (*deviceState, bool) {
	sh := st.shardFor(deviceID)
	sh.mu.Lock()
	d, ok := sh.devices[deviceID]
	sh.mu.Unlock()
	return d, ok
}

func (st *shardedStore) Put(deviceID string, dev *deviceState) (*deviceState, bool) {
	sh := st.shardFor(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.devices[deviceID]; ok {
		return cur, false
	}
	sh.devices[deviceID] = dev
	return dev, true
}

func (st *shardedStore) Remove(deviceID string) (*deviceState, bool) {
	sh := st.shardFor(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, ok := sh.devices[deviceID]
	if ok {
		delete(sh.devices, deviceID)
	}
	return d, ok
}

func (st *shardedStore) Range(fn func(*deviceState) bool) {
	for _, sh := range st.shards {
		// Snapshot the stripe under its lock, visit outside it: fn takes
		// per-device mutexes (stats reads) and must not nest them inside a
		// stripe mutex a concurrent Put needs.
		sh.mu.Lock()
		entries := make([]*deviceState, 0, len(sh.devices))
		for _, d := range sh.devices {
			entries = append(entries, d)
		}
		sh.mu.Unlock()
		for _, d := range entries {
			if !fn(d) {
				return
			}
		}
	}
}

func (st *shardedStore) Len() int {
	n := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		n += len(sh.devices)
		sh.mu.Unlock()
	}
	return n
}
