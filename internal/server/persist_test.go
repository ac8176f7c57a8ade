package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/cluster"
	"proverattest/internal/core"
	"proverattest/internal/journal"
	"proverattest/internal/protocol"
)

// testDevice builds a store-insertable entry with a real verifier, the
// way Server.device does — store tests need entries whose snapshotLocked
// works, because the persistence flusher journals through it.
func testDevice(t testing.TB, id string) *deviceState {
	t.Helper()
	key := protocol.DeriveDeviceKey(testMaster, id)
	v, err := protocol.NewVerifier(protocol.VerifierConfig{
		Freshness:     protocol.FreshCounter,
		Auth:          protocol.NewHMACAuth(key[:]),
		AttestKey:     key[:],
		Golden:        core.GoldenRAMPattern(),
		AllowFastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &deviceState{id: id, v: v}
}

func openPersistent(t testing.TB, dir string, opts PersistOptions) *PersistentStore {
	t.Helper()
	ps, err := OpenPersistentStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps
}

// --- VerifierStore conformance suite -------------------------------------
//
// Every backend must honour the interface contract the daemon is built
// on: first-insert-wins Put (the winner carries the live freshness
// stream), Remove returning the evicted entry (the handoff primitive),
// and Range tolerating concurrent mutation. Future backends get these
// checks for free by adding a constructor here.

func storeBackends(t *testing.T) map[string]func(t *testing.T) VerifierStore {
	return map[string]func(t *testing.T) VerifierStore{
		"sharded": func(t *testing.T) VerifierStore { return NewShardedStore(8) },
		"persistent": func(t *testing.T) VerifierStore {
			return openPersistent(t, t.TempDir(), PersistOptions{Fsync: journal.FsyncNone})
		},
	}
}

func TestStoreConformance(t *testing.T) {
	for name, mk := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("first insert wins", func(t *testing.T) {
				st := mk(t)
				a := testDevice(t, "conf-a")
				b := testDevice(t, "conf-a") // racing construction of the same ID
				got, inserted := st.Put("conf-a", a)
				if !inserted || got != a {
					t.Fatalf("first Put: inserted=%v got=%p want %p", inserted, got, a)
				}
				got, inserted = st.Put("conf-a", b)
				if inserted || got != a {
					t.Fatalf("second Put must lose to the incumbent: inserted=%v got=%p", inserted, got)
				}
				if d, ok := st.Get("conf-a"); !ok || d != a {
					t.Fatalf("Get returned %p, want the winner %p", d, a)
				}
				if st.Len() != 1 {
					t.Fatalf("Len=%d, want 1", st.Len())
				}
			})
			t.Run("remove returns entry", func(t *testing.T) {
				st := mk(t)
				a := testDevice(t, "conf-rm")
				st.Put("conf-rm", a)
				d, ok := st.Remove("conf-rm")
				if !ok || d != a {
					t.Fatalf("Remove: ok=%v got=%p want %p", ok, d, a)
				}
				if _, ok := st.Remove("conf-rm"); ok {
					t.Fatal("second Remove found a ghost entry")
				}
				if _, ok := st.Get("conf-rm"); ok {
					t.Fatal("removed entry still visible")
				}
				if st.Len() != 0 {
					t.Fatalf("Len=%d, want 0", st.Len())
				}
			})
			t.Run("concurrent range tolerance", func(t *testing.T) {
				st := mk(t)
				for i := 0; i < 32; i++ {
					id := fmt.Sprintf("conf-rg-%d", i)
					st.Put(id, testDevice(t, id))
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { // churn inserts and removals during the sweeps
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						id := fmt.Sprintf("conf-churn-%d", i%8)
						if d, ok := st.Remove(id); !ok || d == nil {
							st.Put(id, testDevice(t, id))
						}
					}
				}()
				for i := 0; i < 50; i++ {
					seen := 0
					st.Range(func(d *deviceState) bool {
						if d == nil {
							t.Error("Range visited a nil entry")
							return false
						}
						seen++
						return true
					})
					// The 32 stable entries must always be visible; churned
					// entries may or may not be, per the Range contract.
					if seen < 32 {
						t.Fatalf("sweep %d visited %d entries, want >= 32", i, seen)
					}
				}
				close(stop)
				wg.Wait()
			})
		})
	}
}

// --- satellite 1: sharded store hot-path allocations ----------------------

// TestShardedStoreGetZeroAllocs pins the FNV-1a inlining: Get backs every
// frame's device lookup, and the old hash.Hash32 + []byte(id) pair cost
// two heap objects per call.
func TestShardedStoreGetZeroAllocs(t *testing.T) {
	st := NewShardedStore(16)
	st.Put("alloc-store-dev", testDevice(t, "alloc-store-dev"))
	probe := func() { st.Get("alloc-store-dev") }
	probe()
	if n := testing.AllocsPerRun(1000, probe); n != 0 {
		t.Errorf("shardedStore.Get: %v allocs/op, want 0", n)
	}
	miss := func() { st.Get("alloc-store-miss") }
	miss()
	if n := testing.AllocsPerRun(1000, miss); n != 0 {
		t.Errorf("shardedStore.Get miss: %v allocs/op, want 0", n)
	}
}

// TestGateRejectZeroAllocsOverPersistentStore re-pins the daemon's
// attacker-reachable reject paths with the persistence backend slotted
// in: the store wrapper must add nothing to frames that die at the gate,
// whether or not a flusher runs behind it on the fsync timer.
func TestGateRejectZeroAllocsOverPersistentStore(t *testing.T) {
	for _, policy := range []journal.FsyncPolicy{journal.FsyncNone, journal.FsyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			ps := openPersistent(t, t.TempDir(), PersistOptions{Fsync: policy})
			s, err := New(Config{
				Freshness:    protocol.FreshCounter,
				Auth:         protocol.AuthHMACSHA1,
				MasterSecret: testMaster,
				Golden:       core.GoldenRAMPattern(),
				Store:        ps,
			})
			if err != nil {
				t.Fatal(err)
			}
			dev, err := s.device("alloc-persist-dev")
			if err != nil {
				t.Fatal(err)
			}
			rig := newReadRig(s, dev, nil)
			unknown := []byte{0xDE, 0xAD, 0xBE, 0xEF}
			allocsPerFrame(t, "unknown frame over persistent store", 0,
				func() { rig.serve(t, unknown) })
			unsolicited := (&protocol.AttResp{Nonce: 0xFEED}).Encode()
			allocsPerFrame(t, "unsolicited response over persistent store", 0,
				func() { rig.serve(t, unsolicited) })
		})
	}
}

// --- satellite 2: fleet stats monotonicity under churn --------------------

// TestAgentStatsMonotoneUnderChurn races the stats sweep against reboot
// folds and store churn. Historically the sweep read a device's
// high-water base under its lock but the latest report after releasing
// it; an onStats reboot fold interleaving between the two reads dropped
// a whole epoch from the total — a non-monotone dip in the fleet gauges.
func TestAgentStatsMonotoneUnderChurn(t *testing.T) {
	s := testServer(t, nil)
	dev, err := s.device("stats-churn-dev")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Reboot churn: counters climb within an epoch, then reset to a small
	// value, which onStats detects as a reboot and folds into the base.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var v uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 4; i++ {
				v += 10
				frame := (&protocol.StatsReport{Received: v, Measurements: v}).Encode()
				s.handleFrame(dev, frame)
			}
			v = 1 // reboot: cumulative counters restart near zero
		}
	}()

	// Store churn: handoff-style insert/remove of zero-stats devices keeps
	// the Range stripe snapshots moving under the sweep.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("stats-ghost-%d", i%4)
			if _, ok := s.store.Remove(id); !ok {
				s.store.Put(id, testDevice(t, id))
			}
		}
	}()

	var last uint64
	for i := 0; i < 3000; i++ {
		got := s.AgentStats().Received
		if got < last {
			t.Fatalf("fleet Received regressed: %d -> %d (sweep %d)", last, got, i)
		}
		last = got
	}
	close(stop)
	wg.Wait()
}

// --- persistence unit coverage -------------------------------------------

// TestPersistentStoreRoundTrip drives state through a clean close and
// reopen: the recovered snapshot must be exact, preserve the fast-path
// arm, and continue the counter stream precisely.
func TestPersistentStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ps, err := OpenPersistentStore(dir, PersistOptions{Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t, "rt-dev")
	dev.v.ImportState(protocol.VerifierState{
		Counter: 77, NonceSeq: 78,
		HaveFast: true, FastEpoch: 3,
	})
	ps.Put("rt-dev", dev)
	gone := testDevice(t, "rt-gone")
	ps.Put("rt-gone", gone)
	ps.Remove("rt-gone")
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	ps2 := openPersistent(t, dir, PersistOptions{Fsync: journal.FsyncNone})
	if n := ps2.RecoveredPending(); n != 1 {
		t.Fatalf("RecoveredPending=%d, want 1 (tombstoned device must not recover)", n)
	}
	snap, exact, ok := ps2.TakeRecovered("rt-dev")
	if !ok || !exact {
		t.Fatalf("TakeRecovered: ok=%v exact=%v, want both", ok, exact)
	}
	if snap.State.Counter != 77 || snap.State.NonceSeq != 78 {
		t.Fatalf("streams not exact: %+v", snap.State)
	}
	if !snap.State.HaveFast || snap.State.FastEpoch != 3 {
		t.Fatalf("clean close must preserve the fast-path arm: %+v", snap.State)
	}
	if _, _, ok := ps2.TakeRecovered("rt-dev"); ok {
		t.Fatal("TakeRecovered claimed the same device twice")
	}
	if _, _, ok := ps2.TakeRecovered("rt-gone"); ok {
		t.Fatal("tombstoned device recovered")
	}
}

// TestPersistentStoreKillJumpsStreams kills an under-synced store and
// asserts recovery applies the restart jump: streams move forward by
// FreshnessSlack and the fast arm is dropped — never replayed live.
func TestPersistentStoreKillJumpsStreams(t *testing.T) {
	dir := t.TempDir()
	ps, err := OpenPersistentStore(dir, PersistOptions{Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t, "kill-dev")
	dev.v.ImportState(protocol.VerifierState{
		Counter: 100, NonceSeq: 200,
		HaveFast: true, FastEpoch: 5,
	})
	ps.Put("kill-dev", dev)
	ps.MarkDirty("kill-dev")
	waitFor(t, 5*time.Second, "write-behind flush", func() bool {
		return ps.Stats().Appends > 0
	})
	ps.Kill()

	ps2 := openPersistent(t, dir, PersistOptions{Fsync: journal.FsyncNone})
	snap, exact, ok := ps2.TakeRecovered("kill-dev")
	if !ok {
		t.Fatal("device not recovered after kill")
	}
	if exact {
		t.Fatal("kill without sentinel under FsyncNone must not be exact")
	}
	if snap.State.Counter < 100+cluster.FreshnessSlack || snap.State.NonceSeq < 200+cluster.FreshnessSlack {
		t.Fatalf("streams not jumped: %+v", snap.State)
	}
	if snap.State.HaveFast {
		t.Fatal("stale fast-path arm must be dropped on a jumped recovery")
	}
}

// TestPersistentStoreCompactionSurvivesRestart pushes enough appends to
// trigger compaction, then restarts and checks nothing was lost —
// including a recovered-but-never-reconnected device, which only the
// compaction capture keeps alive once old journal generations are pruned.
func TestPersistentStoreCompactionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ps, err := OpenPersistentStore(dir, PersistOptions{Fsync: journal.FsyncNone, CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t, "cp-dev")
	dev.v.ImportState(protocol.VerifierState{Counter: 5, NonceSeq: 5})
	ps.Put("cp-dev", dev)
	for i := 0; i < 40; i++ {
		dev.mu.Lock()
		st := dev.v.ExportState()
		st.Counter++
		st.NonceSeq++
		dev.v.ImportState(st)
		dev.mu.Unlock()
		ps.MarkDirty("cp-dev")
		time.Sleep(time.Millisecond)
	}
	waitFor(t, 10*time.Second, "a compaction", func() bool {
		return ps.Stats().Compactions > 0
	})
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without claiming cp-dev, run long enough to compact again,
	// and make sure the unclaimed recovered device survives that too.
	ps2, err := OpenPersistentStore(dir, PersistOptions{Fsync: journal.FsyncNone, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	other := testDevice(t, "cp-other")
	ps2.Put("cp-other", other)
	for i := 0; i < 20; i++ {
		ps2.MarkDirty("cp-other")
		time.Sleep(time.Millisecond)
	}
	waitFor(t, 10*time.Second, "second compaction", func() bool {
		return ps2.Stats().Compactions > 0
	})
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}

	ps3 := openPersistent(t, dir, PersistOptions{Fsync: journal.FsyncNone})
	snap, _, ok := ps3.TakeRecovered("cp-dev")
	if !ok {
		t.Fatal("unclaimed recovered device lost across compaction")
	}
	if snap.State.Counter < 45 {
		t.Fatalf("counter=%d, want >= 45 (last journaled state)", snap.State.Counter)
	}
	if _, _, ok := ps3.TakeRecovered("cp-other"); !ok {
		t.Fatal("cp-other lost")
	}
}

// --- the in-process kill -9 restart drill ---------------------------------

// runRestartDrill is the acceptance scenario from the issue: agents
// attest against a persistent daemon, the daemon dies mid-traffic without
// any flush (Kill == kill -9), a new daemon reopens the same state
// directory on the same address, and the *same* agent processes — whose
// trust anchors remember every counter they have ever seen — must accept
// the restarted daemon's requests with zero freshness rejects.
func runRestartDrill(t *testing.T, policy journal.FsyncPolicy) (c Counters, fleet protocol.StatsReport) {
	t.Helper()
	dir := t.TempDir()
	const devices = 4

	opts := PersistOptions{Fsync: policy, FsyncInterval: 10 * time.Millisecond, CompactEvery: 64}
	ps1, err := OpenPersistentStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mkServer := func(ps *PersistentStore) *Server {
		s, err := New(Config{
			Freshness:    protocol.FreshCounter,
			Auth:         protocol.AuthHMACSHA1,
			MasterSecret: testMaster,
			Golden:       core.GoldenRAMPattern(),
			AttestEvery:  10 * time.Millisecond,
			Store:        ps,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	srv1 := mkServer(ps1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv1.Serve(ln) //nolint:errcheck

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agents := make([]*agent.Agent, devices)
	var wg sync.WaitGroup
	for i := range agents {
		a := testAgent(t, fmt.Sprintf("drill-dev-%d", i))
		agents[i] = a
		wg.Add(1)
		go func() {
			defer wg.Done()
			dial := func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr)
			}
			a.Run(ctx, dial, agent.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}) //nolint:errcheck
		}()
	}

	// Phase 1: every device completes accepted rounds, so every stream has
	// advanced past its initial state when the axe falls. The fleet-wide
	// total alone can be reached by a subset of the devices.
	waitFor(t, 20*time.Second, "pre-kill accepted rounds", func() bool {
		return measuredAll(agents, 3) && srv1.Counters().ResponsesAccepted >= devices*3
	})

	// kill -9: no drain, no sentinel, no final fsync. Close the server
	// first so no serving goroutine touches the store mid-kill — exactly a
	// process death from the agents' point of view (their connections drop
	// and they begin redialling).
	srv1.Close()
	ps1.Kill()

	ps2, err := OpenPersistentStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := ps2.RecoveredPending(); n != devices {
		t.Fatalf("recovered %d devices, want %d", n, devices)
	}
	srv2 := mkServer(ps2)
	defer func() {
		srv2.Close()
		ps2.Close()
	}()
	// The listener port is free (srv1.Close closed it); rebind it so the
	// agents' redial loops land on the restarted daemon unchanged.
	var ln2 net.Listener
	waitFor(t, 10*time.Second, "rebind of the drill address", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	go srv2.Serve(ln2) //nolint:errcheck

	// Phase 2: the same agents must reconnect and complete accepted rounds
	// against the restarted daemon.
	waitFor(t, 20*time.Second, "post-restart accepted rounds", func() bool {
		return srv2.Counters().ResponsesAccepted >= devices*3
	})
	waitFor(t, 10*time.Second, "all recovered devices claimed", func() bool {
		return ps2.RecoveredPending() == 0
	})
	cancel()
	wg.Wait()

	// The freshness verdict comes from the provers themselves: their
	// anchors saw every counter both daemons ever issued, and a single
	// replayed or stale one would land on FreshnessRejected.
	for _, a := range agents {
		fleet.Accumulate(&[]protocol.StatsReport{a.Snapshot()}[0])
	}
	return srv2.Counters(), fleet
}

func TestRestartDrillFsyncAlways(t *testing.T) {
	c, fleet := runRestartDrill(t, journal.FsyncAlways)
	if fleet.FreshnessRejected != 0 {
		t.Fatalf("freshness rejects after restart: %d", fleet.FreshnessRejected)
	}
	// Write-ahead journaling entitles every recovery to exact adoption.
	if c.RecoveredExact != 4 || c.RecoveredJumped != 0 {
		t.Fatalf("adoptions: exact=%d jumped=%d, want 4/0", c.RecoveredExact, c.RecoveredJumped)
	}
}

func TestRestartDrillFsyncInterval(t *testing.T) {
	c, fleet := runRestartDrill(t, journal.FsyncInterval)
	if fleet.FreshnessRejected != 0 {
		t.Fatalf("freshness rejects after restart: %d", fleet.FreshnessRejected)
	}
	// An interval-synced journal killed without a sentinel may have lost
	// its tail: every recovery must take the jump, never replay live.
	if c.RecoveredJumped != 4 || c.RecoveredExact != 0 {
		t.Fatalf("adoptions: exact=%d jumped=%d, want 0/4", c.RecoveredExact, c.RecoveredJumped)
	}
}

// TestExactRestartWithholdsStaleFastRecord replays the state-transfer
// sequence through exact restart adoption under fsync=always: two full
// requests go out and the device measures both, only the older answer
// is accepted, and the daemon restarts. The device holds the newer
// digest, so the restarted daemon must demand a full MAC, and the
// device's honest answers must be accepted without a reject.
func TestExactRestartWithholdsStaleFastRecord(t *testing.T) {
	const id = "restart-fast-dev"
	dir := t.TempDir()
	golden := core.GoldenRAMPattern()
	open := func() *Server {
		ps := openPersistent(t, dir, PersistOptions{Fsync: journal.FsyncAlways})
		s, err := New(Config{
			Freshness:    protocol.FreshCounter,
			Auth:         protocol.AuthHMACSHA1,
			MasterSecret: testMaster,
			Golden:       golden,
			FastPath:     true,
			Store:        ps,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	key := protocol.DeriveDeviceKey(testMaster, id)
	fr := protocol.NewFastResponder(key[:], golden)

	s1 := open()
	dev, err := s1.device(id)
	if err != nil {
		t.Fatal(err)
	}
	// The journal's flush loop snapshots the verifier under the device
	// lock, so requests are issued under it, as issueOne does.
	newRequest := func(d *deviceState) *protocol.AttReq {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		req, err := d.v.NewRequest()
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	var resps [2]protocol.AttResp
	for i := range resps {
		req := newRequest(dev)
		s1.persist.persistIssue(dev)
		fr.RespondInto(req, &resps[i])
	}
	if cause := s1.handleFrame(dev, resps[0].Encode()); cause != causeNone {
		t.Fatalf("older answer refused: cause %d", cause)
	}
	if err := s1.persist.Close(); err != nil { // the newer answer is lost
		t.Fatal(err)
	}

	s2 := open()
	dev2, err := s2.device(id)
	if err != nil {
		t.Fatal(err)
	}
	if c := s2.Counters(); c.RecoveredExact != 1 {
		t.Fatalf("restart adoption not exact: %+v", c)
	}
	for round := 0; round < 2; round++ {
		req := newRequest(dev2)
		if round == 0 && req.AllowFast {
			t.Fatal("restarted daemon granted fast permission against a digest the device no longer holds")
		}
		var resp protocol.AttResp
		fr.RespondInto(req, &resp)
		if cause := s2.handleFrame(dev2, resp.Encode()); cause != causeNone {
			t.Fatalf("round %d: honest answer refused: cause %d", round, cause)
		}
	}
	if c := s2.Counters(); c.ResponsesRejected != 0 || c.ResponsesFast != 1 {
		t.Fatalf("after restart: %+v", c)
	}
}
