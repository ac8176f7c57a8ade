package server

import (
	"proverattest/internal/cluster"
	"proverattest/internal/transport"
)

// This file is the daemon side of cluster mode: adopting handed-off
// state when an owned device first appears and serving peers'
// state-transfer requests. The routing decisions themselves (ring,
// membership, redirects' addresses) live in internal/cluster; this file
// only moves verifier state in and out of the store.

// handoffKind records how a newly created device entry got its freshness
// state.
type handoffKind int

const (
	handoffNone    handoffKind = iota
	handoffLive                // fetched from the previous owner, exact
	handoffReplica             // imported from a replicated snapshot, jumped
)

// adoptClusterState initialises a not-yet-published device entry from the
// cluster, preferring the previous owner's live state (exact: the
// counter/nonce streams continue precisely, the fast-path arm record
// survives) and falling back to a locally held replica (jumped: streams
// skip FreshnessSlack forward, fast record dropped — see
// cluster.Snapshot.JumpForReplica for why both are freshness-safe).
func (s *Server) adoptClusterState(d *deviceState, deviceID string) handoffKind {
	if s.cl == nil {
		return handoffNone
	}
	if snap, ok := s.cl.FetchState(deviceID); ok {
		d.importSnapshot(snap)
		return handoffLive
	}
	if snap, ok := s.cl.TakeReplica(deviceID); ok {
		d.importSnapshot(snap.JumpForReplica())
		return handoffReplica
	}
	return handoffNone
}

// importSnapshot loads a handed-off snapshot into an entry that has not
// been published to the store yet (no lock needed — nothing else can see
// it).
func (d *deviceState) importSnapshot(snap cluster.Snapshot) {
	d.v.ImportState(snap.State)
	d.statsBase = snap.StatsBase
	d.statsEpochs = snap.StatsEpochs
	if snap.HaveLast {
		st := snap.LastStats
		d.lastStats.Store(&st)
	}
}

// snapshotFor reads a device's current transferable state — the
// replication pusher's source, bound via cluster.Node.BindSource.
func (s *Server) snapshotFor(deviceID string) (cluster.Snapshot, bool) {
	d, ok := s.store.Get(deviceID)
	if !ok {
		return cluster.Snapshot{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.handedOff {
		return cluster.Snapshot{}, false
	}
	return d.snapshotLocked(), true
}

// snapshotLocked assembles the transfer snapshot. Callers hold d.mu.
func (d *deviceState) snapshotLocked() cluster.Snapshot {
	snap := cluster.Snapshot{
		State:       d.v.ExportState(),
		StatsBase:   d.statsBase,
		StatsEpochs: d.statsEpochs,
	}
	if st := d.lastStats.Load(); st != nil {
		snap.LastStats = *st
		snap.HaveLast = true
	}
	return snap
}

// extractState serves a peer's state request with move semantics: export
// the snapshot, mark the entry handed off (under its lock, so no request
// can be issued after the export — the counter the new owner continues
// from is exact), and drop it from the store. A device this daemon never
// held answers found == false.
func (s *Server) extractState(deviceID string) []byte {
	d, ok := s.store.Get(deviceID)
	if !ok {
		return cluster.EncodeStateResp(deviceID, nil)
	}
	d.mu.Lock()
	if d.handedOff {
		// A racing extract already took it; at most one positive answer
		// may exist or two daemons would both continue the stream.
		d.mu.Unlock()
		return cluster.EncodeStateResp(deviceID, nil)
	}
	d.handedOff = true
	snap := d.snapshotLocked()
	d.mu.Unlock()

	if _, removed := s.store.Remove(deviceID); removed {
		s.deviceCount.Add(-1)
	}
	if tr := d.tier.Load(); tr != nil {
		tr.devices.Add(-1)
	}
	s.m.stateExports.Inc()
	// The husk's issue loop notices handedOff on its next tick and tears
	// the old session down; responses still in flight die as unsolicited
	// or retire against the husk's pending map, never touching the
	// counter stream.
	return cluster.EncodeStateResp(deviceID, &snap)
}

// servePeer runs a peer link: state requests, replication pushes, pings.
// Peer links are not device connections — they create no device state and
// count toward no fleet aggregates.
func (s *Server) servePeer(tc *transport.Conn, helloFrame []byte) {
	if _, err := cluster.DecodePeerHello(helloFrame); err != nil {
		s.m.connRejHello.Inc()
		return
	}
	s.m.peerConns.Inc()
	for {
		frame, err := tc.RecvShared()
		if err != nil {
			return
		}
		switch cluster.ClassifyPeer(frame) {
		case cluster.PeerStateReq:
			id, err := cluster.DecodeStateReq(frame)
			if err != nil {
				s.m.rejects[causeUnknownKind].Inc()
				return
			}
			if tc.Send(s.extractState(id)) != nil {
				return
			}
		case cluster.PeerStatePush:
			id, snap, err := cluster.DecodeStatePush(frame)
			if err != nil {
				s.m.rejects[causeUnknownKind].Inc()
				return
			}
			s.cl.StoreReplica(id, snap)
		case cluster.PeerPing:
			if tc.Send(cluster.EncodePong()) != nil {
				return
			}
		default:
			// A peer speaking garbage is cut off; the link redials clean.
			s.m.rejects[causeUnknownKind].Inc()
			return
		}
	}
}
