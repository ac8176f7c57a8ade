package server

import (
	"context"
	"sort"

	"proverattest/internal/admin"
)

// This file implements admin.Controller on the daemon: the operational
// control plane's view of the device table, the tier policy and the drain
// machinery. Everything here is exposition/mutation-path code — it may
// take the per-device mutexes, but it never runs on the per-frame gate.

// AdminDevices lists every device this daemon holds state for, sorted by
// ID (implements admin.Controller).
func (s *Server) AdminDevices() []admin.DeviceInfo {
	out := make([]admin.DeviceInfo, 0, s.store.Len())
	s.store.Range(func(d *deviceState) bool {
		out = append(out, s.deviceInfo(d))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AdminDevice reports one device's control-plane view.
func (s *Server) AdminDevice(id string) (admin.DeviceInfo, bool) {
	d, ok := s.store.Get(id)
	if !ok {
		return admin.DeviceInfo{}, false
	}
	return s.deviceInfo(d), true
}

func (s *Server) deviceInfo(d *deviceState) admin.DeviceInfo {
	info := admin.DeviceInfo{ID: d.id}
	if tr := d.tier.Load(); tr != nil {
		info.Tier = tr.name
	}
	d.mu.Lock()
	st := d.v.ExportState()
	info.Outstanding = d.v.Outstanding()
	info.HandedOff = d.handedOff
	info.StatsEpochs = d.statsEpochs
	// Base + latest under one lock acquisition, same as AgentStats: a
	// reboot fold between the two reads would drop an epoch.
	stats := d.statsBase
	if d.haveLast {
		stats.Accumulate(&d.lastStats)
	}
	d.mu.Unlock()
	info.Counter = st.Counter
	info.NonceSeq = st.NonceSeq
	info.FastArmed = st.HaveFast
	info.FastEpoch = st.FastEpoch
	info.Received = stats.Received
	info.Measurements = stats.Measurements
	info.FastHits = stats.FastResponses
	info.GateRejected = stats.GateRejected()
	return info
}

// AdminEvict removes a device's verifier state with the same move-out
// semantics as a cluster handoff: mark the entry a husk under its lock
// (no request can be issued after that point), drop it from the store
// (a PersistentStore tombstones it), and kick the issue loop so the
// session tears down now instead of at the next tick. The device's next
// connection builds fresh state — counter stream restarted, which is
// exactly what an operator evicting a suspect identity wants.
func (s *Server) AdminEvict(id string) bool {
	d, ok := s.store.Get(id)
	if !ok {
		return false
	}
	d.mu.Lock()
	if d.handedOff {
		d.mu.Unlock()
		return false
	}
	d.handedOff = true
	d.mu.Unlock()

	if _, removed := s.store.Remove(id); removed {
		s.deviceCount.Add(-1)
	}
	if tr := d.tier.Load(); tr != nil {
		tr.devices.Add(-1)
	}
	s.m.adminEvicts.Inc()
	d.kickIssue()
	return true
}

// AdminReattest drops the device's fast-path arm record and kicks its
// issue loop: the immediate next request demands — and its verdict
// verifies — a full golden-image MAC, re-establishing ground truth
// instead of trusting the O(1) unchanged-since-last-attest claim.
func (s *Server) AdminReattest(id string) bool {
	d, ok := s.store.Get(id)
	if !ok {
		return false
	}
	d.mu.Lock()
	gone := d.handedOff
	if !gone {
		d.v.DropFastState()
	}
	d.mu.Unlock()
	if gone {
		return false
	}
	// The arm record is part of the replicated/journaled snapshot; a
	// failover successor or restarted daemon must not resurrect it.
	if s.cl != nil {
		s.cl.Replicate(id)
	}
	if s.persist != nil {
		s.persist.MarkDirty(id)
	}
	s.m.adminReattests.Inc()
	d.kickIssue()
	return true
}

// AdminTiers lists the admission tiers in policy order.
func (s *Server) AdminTiers() []admin.TierStatus {
	out := make([]admin.TierStatus, 0, len(s.tiers.tiers))
	for _, t := range s.tiers.tiers {
		out = append(out, tierStatus(t))
	}
	return out
}

func tierStatus(t *tier) admin.TierStatus {
	rate, burst, connRate, connBurst := t.limits()
	return admin.TierStatus{
		Name:              t.name,
		Class:             t.class,
		Default:           t.isDefault,
		Match:             t.match,
		RatePerSec:        rate,
		Burst:             burst,
		PerConnRatePerSec: connRate,
		PerConnBurst:      connBurst,
		Admitted:          t.admitted.Load(),
		Limited:           t.limited.Load(),
		Devices:           t.devices.Load(),
	}
}

// AdminSetTier applies a runtime limit override to one tier. The
// tier-wide bucket is rebuilt immediately, and each connection in the
// tier admits against it from its next socket read; per-connection
// budgets reach connections opened after the override (established
// sessions keep the bucket they were admitted with).
func (s *Server) AdminSetTier(name string, o admin.TierOverride) (admin.TierStatus, error) {
	t := s.tiers.byName(name)
	if t == nil {
		return admin.TierStatus{}, admin.ErrUnknownTier
	}
	keep := func(p *float64) float64 {
		if p == nil {
			return -1
		}
		return *p
	}
	t.setLimits(keep(o.RatePerSec), keep(o.Burst), keep(o.PerConnRatePerSec), keep(o.PerConnBurst))
	s.m.adminOverrides.Inc()
	return tierStatus(t), nil
}

// AdminDrain starts a graceful drain in the background: the
// Shutdown contract (refuse new connections, stop issuing, wait out the
// inflight verdicts, then close). The admin response returns immediately;
// /readyz flips to 503 for the duration, which is how a load balancer
// learns to stop sending traffic.
func (s *Server) AdminDrain() {
	s.m.adminDrains.Inc()
	go func() { _ = s.Shutdown(context.Background()) }()
}
