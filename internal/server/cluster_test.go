package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/cluster"
	"proverattest/internal/core"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// clusterDaemon bundles one in-process cluster member: its listener, its
// ring view and the daemon serving on it.
type clusterDaemon struct {
	name string
	addr string
	node *cluster.Node
	srv  *Server
}

// startCluster brings up one daemon per name, all sharing a Membership
// over real loopback listeners, and serves them.
func startCluster(t *testing.T, names []string, mutate func(*Config)) (*cluster.Membership, []*clusterDaemon) {
	t.Helper()
	lns := make([]net.Listener, len(names))
	members := make([]cluster.Member, len(names))
	for i, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		members[i] = cluster.Member{Name: name, Addr: ln.Addr().String()}
	}
	ms := cluster.NewMembership(cluster.DefaultVnodes, members...)

	ds := make([]*clusterDaemon, len(names))
	for i, name := range names {
		node, err := cluster.NewNode(name, ms, cluster.NodeOptions{CallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Freshness:    protocol.FreshCounter,
			Auth:         protocol.AuthHMACSHA1,
			MasterSecret: testMaster,
			Golden:       core.GoldenRAMPattern(),
			AttestEvery:  25 * time.Millisecond,
			FastPath:     true,
			Cluster:      node,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(lns[i]) //nolint:errcheck
		ds[i] = &clusterDaemon{name: name, addr: members[i].Addr, node: node, srv: s}
		t.Cleanup(func() { s.Close(); node.Close() })
	}
	return ms, ds
}

// clusterAgent builds a monitored (fast-path capable) prover for cluster
// tests.
func clusterAgent(t *testing.T, id string) *agent.Agent {
	t.Helper()
	a, err := agent.New(agent.Config{
		DeviceID:     id,
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		FastPath:     true,
		StatsEvery:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// devicesOwnedBy picks n device IDs the ring assigns to owner.
func devicesOwnedBy(t *testing.T, ring *cluster.Ring, owner, prefix string, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; len(ids) < n && i < 100_000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if got, ok := ring.Owner(id); ok && got == owner {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("found only %d of %d devices owned by %s", len(ids), n, owner)
	}
	return ids
}

func deviceCounter(t *testing.T, s *Server, id string) uint64 {
	t.Helper()
	d, ok := s.store.Get(id)
	if !ok {
		t.Fatalf("device %s not in store", id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.v.LastCounter()
}

// TestClusterLiveHandoff reconnects a device to a new owner while the old
// owner is alive: the state transfer must be exact — the counter stream
// continues, the fast-path arm record survives, and the old owner keeps a
// husk no longer in its table.
func TestClusterLiveHandoff(t *testing.T) {
	names := []string{"n0", "n1"}
	ms, ds := startCluster(t, names, nil)

	// Phase 1 runs with n1 down, so n0 owns everything; the device is
	// chosen to belong to n1 once the full ring is back.
	ms.MarkDown("n1")
	ring := cluster.NewRing(cluster.DefaultVnodes, names)
	dev := devicesOwnedBy(t, ring, "n1", "hand-dev", 1)[0]

	a := clusterAgent(t, dev)
	ctx1, cancel1 := context.WithCancel(context.Background())
	nc, err := net.Dial("tcp", ds[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); a.Serve(ctx1, nc) }() //nolint:errcheck

	waitFor(t, 20*time.Second, "accepted rounds on the old owner", func() bool {
		return ds[0].srv.Counters().ResponsesAccepted >= 2
	})
	c0 := deviceCounter(t, ds[0].srv, dev)
	cancel1()
	<-done

	// Ownership flips to n1; the reconnect must be redirected there and
	// adopt the live state.
	ms.MarkUp("n1")
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go a.RunAddrs(ctx2, []string{ds[0].addr, ds[1].addr}, agent.Backoff{ //nolint:errcheck
		Base: 10 * time.Millisecond, Max: 100 * time.Millisecond,
	})

	waitFor(t, 20*time.Second, "live handoff on the new owner", func() bool {
		return ds[1].srv.Counters().HandoffsLive == 1
	})
	waitFor(t, 20*time.Second, "accepted rounds on the new owner", func() bool {
		return ds[1].srv.Counters().ResponsesAccepted >= 2
	})

	if c1 := deviceCounter(t, ds[1].srv, dev); c1 <= c0 {
		t.Errorf("counter did not continue across handoff: old owner at %d, new owner at %d", c0, c1)
	}
	if got := a.Snapshot().FreshnessRejected; got != 0 {
		t.Errorf("device rejected %d requests for freshness — the handoff reset the stream", got)
	}
	c := ds[0].srv.Counters()
	if c.StateExports != 1 {
		t.Errorf("old owner exported %d states, want 1", c.StateExports)
	}
	if c.Redirects == 0 {
		t.Error("old owner never redirected the reconnect")
	}
	if n := ds[0].srv.Devices(); n != 0 {
		t.Errorf("old owner still counts %d devices after the handoff", n)
	}
	// The fast-path record survived the exact transfer: the new owner
	// keeps granting fast responses.
	waitFor(t, 20*time.Second, "fast responses on the new owner", func() bool {
		return ds[1].srv.Counters().ResponsesFast >= 1
	})
}

// TestClusterFailoverSmoke is the CI failover drill: three daemons, a
// fleet spread across them, one daemon killed mid-run. Survivors must
// absorb its devices from replicas with zero freshness regressions — no
// device ever rejects a verifier request as stale. (That a replica
// import cannot re-arm a stale fast-path record is pinned separately in
// TestReplicaAdoptionJumpsAndDropsFast, where it is deterministic.)
func TestClusterFailoverSmoke(t *testing.T) {
	names := []string{"n0", "n1", "n2"}
	ms, ds := startCluster(t, names, nil)
	ring := cluster.NewRing(cluster.DefaultVnodes, names)
	byName := map[string]*clusterDaemon{}
	for _, d := range ds {
		byName[d.name] = d
	}

	// Two devices per daemon, so the victim always has state to lose.
	var devs []string
	for _, name := range names {
		devs = append(devs, devicesOwnedBy(t, ring, name, "fo-dev", 2)...)
	}
	addrs := []string{ds[0].addr, ds[1].addr, ds[2].addr}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agents := make([]*agent.Agent, len(devs))
	for i, dev := range devs {
		agents[i] = clusterAgent(t, dev)
		// Rotate the address list per agent so some first dials hit a
		// non-owner and exercise the redirect path.
		rot := append(append([]string{}, addrs[i%len(addrs):]...), addrs[:i%len(addrs)]...)
		go agents[i].RunAddrs(ctx, rot, agent.Backoff{ //nolint:errcheck
			Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Seed: int64(i),
		})
	}

	accepted := func(a *agent.Agent) uint64 {
		st := a.Snapshot()
		return st.Measurements + st.FastResponses
	}
	waitFor(t, 30*time.Second, "two accepted rounds per device", func() bool {
		for _, a := range agents {
			if accepted(a) < 2 {
				return false
			}
		}
		return true
	})
	// Every device replicated its freshness snapshot to its ring
	// successor — the precondition for a lossless failover.
	waitFor(t, 30*time.Second, "replica coverage of the fleet", func() bool {
		held := 0
		for _, d := range ds {
			held += d.node.ReplicasHeld()
		}
		return held >= len(devs)
	})

	// Kill the owner of the first device.
	victimName, _ := ring.Owner(devs[0])
	victim := byName[victimName]
	var victimDevs []string
	for _, dev := range devs {
		if owner, _ := ring.Owner(dev); owner == victimName {
			victimDevs = append(victimDevs, dev)
		}
	}
	var survivors []*clusterDaemon
	for _, d := range ds {
		if d != victim {
			survivors = append(survivors, d)
		}
	}
	fastBase := survivors[0].srv.Counters().ResponsesFast + survivors[1].srv.Counters().ResponsesFast

	ms.MarkDown(victimName)
	victim.srv.Close()
	// Baselines are read only once the victim's sockets are gone, so two
	// more accepted rounds provably need a fresh session on a survivor —
	// i.e. the device reconnected and was adopted.
	base := make([]uint64, len(agents))
	for i, a := range agents {
		base[i] = accepted(a)
	}

	waitFor(t, 30*time.Second, "two fresh rounds per device after failover", func() bool {
		for i, a := range agents {
			if accepted(a) < base[i]+2 {
				return false
			}
		}
		return true
	})

	// The headline invariant: failover never reset a freshness stream.
	// A survivor re-issuing a counter the device had already seen would
	// show up here as a device-side freshness rejection.
	for i, a := range agents {
		if got := a.Snapshot().FreshnessRejected; got != 0 {
			t.Errorf("device %s rejected %d requests for freshness after failover", devs[i], got)
		}
	}
	var handoffs uint64
	ownedNow := 0
	for _, d := range survivors {
		c := d.srv.Counters()
		handoffs += c.HandoffsReplica
		ownedNow += d.srv.Devices()
	}
	if int(handoffs) < len(victimDevs) {
		t.Errorf("survivors adopted %d replicas, want at least the victim's %d devices", handoffs, len(victimDevs))
	}
	if ownedNow != len(devs) {
		t.Errorf("survivors own %d devices, want the whole fleet of %d", ownedNow, len(devs))
	}
	// The replica import dropped the fast record, so the fast path came
	// back only the legitimate way: a fresh full measurement re-armed it.
	waitFor(t, 30*time.Second, "fast path re-armed on survivors", func() bool {
		n := survivors[0].srv.Counters().ResponsesFast + survivors[1].srv.Counters().ResponsesFast
		return n > fastBase
	})
}

// TestAdmissionScalesAcrossDaemons is the scaling ladder: 1, 2 and 4
// daemons on one consistent-hash ring, each with the same admission budget
// (MaxRatePerSec 1500, burst 64) and each flooded at 1.5 times it for a
// second by a session naming a device it owns. Ownership is disjoint, so
// admission capacity adds: the frames admitted per second must reach 1.7
// times the single daemon's at two daemons and 3.0 times at four. Each
// rate is the budget's, whatever the phase length, so the ratios are too.
// One supervised prover per daemon, whose first dial may land on a
// non-owner and be redirected home, must have a round accepted by its
// daemon before the flood and see no freshness reject.
func TestAdmissionScalesAcrossDaemons(t *testing.T) {
	const budget, floodX, phase = 1500.0, 1.5, time.Second
	rung := func(t *testing.T, n int) float64 {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("n%d", i)
		}
		_, ds := startCluster(t, names, func(c *Config) {
			c.AttestEvery = 100 * time.Millisecond
			// The flooders never answer their requests; recycle the slots fast.
			c.RequestTimeout = 500 * time.Millisecond
			c.MaxInflight = 256
			c.MaxRatePerSec = budget
			// A deep burst bucket would front-load a rung-independent
			// admission bonus into the ratios; keep it shallow so the
			// sustained rate dominates.
			c.MaxRateBurst = 64
		})
		ring := cluster.NewRing(cluster.DefaultVnodes, names)
		addrs := make([]string, n)
		for i, d := range ds {
			addrs[i] = d.addr
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		agents := make([]*agent.Agent, n)
		for i, d := range ds {
			agents[i] = clusterAgent(t, devicesOwnedBy(t, ring, d.name, fmt.Sprintf("cl%d-agent", n), 1)[0])
			go agents[i].RunAddrs(ctx, addrs, agent.Backoff{ //nolint:errcheck
				Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Seed: int64(i),
			})
		}
		waitFor(t, 30*time.Second, "an accepted round on every daemon", func() bool {
			for _, d := range ds {
				if d.srv.Counters().ResponsesAccepted < 1 {
					return false
				}
			}
			return true
		})

		floods := make([]*transport.Conn, n)
		for i, d := range ds {
			floods[i] = floodSession(t, d.addr, devicesOwnedBy(t, ring, d.name, fmt.Sprintf("cl%d-flood", n), 1)[0], 0)
		}
		before := make([]Counters, n)
		for i, d := range ds {
			before[i] = d.srv.Counters()
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, tc := range floods {
			wg.Add(1)
			go func() {
				defer wg.Done()
				floodPaced(tc, floodX*budget, t0.Add(phase))
			}()
		}
		wg.Wait()
		elapsed := time.Since(t0)

		// Admitted frames got both rate gates' budget and reached the
		// serving path.
		var admitted uint64
		for i, d := range ds {
			c := d.srv.Counters()
			admitted += c.FramesIn - before[i].FramesIn
			admitted -= c.RateLimited - before[i].RateLimited
			admitted -= c.DaemonRateLimited - before[i].DaemonRateLimited
		}
		for i, a := range agents {
			if got := a.Snapshot().FreshnessRejected; got != 0 {
				t.Errorf("prover on %s rejected %d requests for freshness", ds[i].name, got)
			}
		}
		rate := float64(admitted) / elapsed.Seconds()
		t.Logf("%d daemons: %.0f admitted frames/s", n, rate)
		return rate
	}

	var rates []float64
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("daemons=%d", n), func(t *testing.T) { rates = append(rates, rung(t, n)) })
	}
	if t.Failed() {
		return
	}
	scale2, scale4 := rates[1]/rates[0], rates[2]/rates[0]
	t.Logf("scaling: 2 daemons %.2fx, 4 daemons %.2fx", scale2, scale4)
	if scale2 < 1.7 {
		t.Errorf("2-daemon scaling %.2fx below the 1.7x floor", scale2)
	}
	if scale4 < 3.0 {
		t.Errorf("4-daemon scaling %.2fx below the 3.0x floor", scale4)
	}
}

// TestReplicaAdoptionJumpsAndDropsFast pins the replica-import semantics
// at the daemon seam, deterministically: a device adopted from a
// replicated snapshot continues FreshnessSlack past the replica's counter
// (the snapshot may lag the dead owner's live state by in-flight rounds)
// and holds no fast-path record — the next request demands a full
// measurement, whatever the replica claimed. A stale fast re-arm after
// failover is therefore impossible by construction.
func TestReplicaAdoptionJumpsAndDropsFast(t *testing.T) {
	ms := cluster.NewMembership(cluster.DefaultVnodes, cluster.Member{Name: "solo", Addr: "127.0.0.1:1"})
	node, err := cluster.NewNode("solo", ms, cluster.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	s := testServer(t, func(c *Config) {
		c.Cluster = node
		c.FastPath = true
	})

	var snap cluster.Snapshot
	snap.State.Counter = 1000
	snap.State.NonceSeq = 2000
	snap.State.FastEpoch = 3
	snap.State.HaveFast = true
	node.StoreReplica("jump-dev", snap)

	d, err := s.device("jump-dev")
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	counter := d.v.LastCounter()
	fast := d.v.HasFastState()
	d.mu.Unlock()
	if want := snap.State.Counter + cluster.FreshnessSlack; counter != want {
		t.Errorf("adopted counter = %d, want the replica's jumped %d", counter, want)
	}
	if fast {
		t.Error("replica adoption kept the fast-path record — a stale record could be honoured")
	}
	if got := s.Counters().HandoffsReplica; got != 1 {
		t.Errorf("HandoffsReplica = %d, want 1", got)
	}
	if got := s.Counters().HandoffsLive; got != 0 {
		t.Errorf("HandoffsLive = %d, want 0", got)
	}
}

// countingStore wraps the default store to prove the daemon drives every
// lookup through the VerifierStore seam.
type countingStore struct {
	VerifierStore
	gets, puts, removes atomic.Int64
}

func (c *countingStore) Get(id string) (*deviceState, bool) {
	c.gets.Add(1)
	return c.VerifierStore.Get(id)
}

func (c *countingStore) Put(id string, d *deviceState) (*deviceState, bool) {
	c.puts.Add(1)
	return c.VerifierStore.Put(id, d)
}

func (c *countingStore) Remove(id string) (*deviceState, bool) {
	c.removes.Add(1)
	return c.VerifierStore.Remove(id)
}

// TestInjectedStore runs an honest round over an injected VerifierStore
// implementation: the pluggability seam the cluster and any future
// persistent backend sit behind.
func TestInjectedStore(t *testing.T) {
	cs := &countingStore{VerifierStore: NewShardedStore(4)}
	s := testServer(t, func(c *Config) { c.Store = cs })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := testAgent(t, "store-dev")
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(ctx, nc) //nolint:errcheck

	waitFor(t, 20*time.Second, "an accepted round through the injected store", func() bool {
		return s.Counters().ResponsesAccepted >= 1
	})
	if cs.gets.Load() == 0 || cs.puts.Load() != 1 {
		t.Errorf("injected store saw gets=%d puts=%d, want gets>0 puts=1", cs.gets.Load(), cs.puts.Load())
	}
	if s.Devices() != 1 {
		t.Errorf("Devices() = %d through injected store", s.Devices())
	}
}
