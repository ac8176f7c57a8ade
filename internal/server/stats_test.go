package server

import (
	"net"
	"testing"
	"time"

	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// statsFrame builds an encoded agent stats report.
func statsFrame(received, measured, framesIn uint64) []byte {
	return (&protocol.StatsReport{
		Received:     received,
		Measurements: measured,
		FramesIn:     framesIn,
	}).Encode()
}

// TestAgentStatsMonotonicAcrossReboot is the regression test for the
// fleet-aggregation bug: AgentStats used to sum each device's *latest*
// report, so a device that rebooted (cumulative counters reset to zero)
// made fleet-wide totals jump backwards. The fix keeps a per-device
// high-water base that absorbs each dying counter epoch.
func TestAgentStatsMonotonicAcrossReboot(t *testing.T) {
	s, dev := newAllocRig(t)

	// First epoch: the device has done real work.
	s.onStats(dev, statsFrame(100, 10, 120))
	before := s.AgentStats()
	if before.Received != 100 || before.Measurements != 10 {
		t.Fatalf("first epoch aggregate = %+v", before)
	}

	// Reboot: the device reconnects reporting from-zero counters.
	s.onStats(dev, statsFrame(3, 1, 4))
	after := s.AgentStats()
	if after.Received < before.Received || after.Measurements < before.Measurements ||
		after.FramesIn < before.FramesIn {
		t.Fatalf("fleet aggregate regressed across reboot: before %+v, after %+v", before, after)
	}
	if after.Received != 103 || after.Measurements != 11 || after.FramesIn != 124 {
		t.Fatalf("aggregate = %+v, want pre-reboot base + new epoch (103/11/124)", after)
	}
	if got := s.Counters().StatsEpochs; got != 1 {
		t.Fatalf("StatsEpochs = %d, want 1 reboot detected", got)
	}

	// The new epoch keeps counting on top of the preserved base.
	s.onStats(dev, statsFrame(50, 5, 60))
	final := s.AgentStats()
	if final.Received != 150 || final.Measurements != 15 {
		t.Fatalf("aggregate after second epoch grew wrong: %+v", final)
	}
	if got := s.Counters().StatsEpochs; got != 1 {
		t.Fatalf("StatsEpochs = %d, want still 1 (monotonic growth is not a reboot)", got)
	}
}

// TestAgentStatsEqualReportIsNotAReboot pins the detection edge: a
// heartbeat identical to the previous one (an idle prover) must not be
// mistaken for a counter reset.
func TestAgentStatsEqualReportIsNotAReboot(t *testing.T) {
	s, dev := newAllocRig(t)
	s.onStats(dev, statsFrame(7, 2, 9))
	s.onStats(dev, statsFrame(7, 2, 9))
	if got := s.Counters().StatsEpochs; got != 0 {
		t.Fatalf("StatsEpochs = %d, want 0 for an idle heartbeat", got)
	}
	if st := s.AgentStats(); st.Received != 7 {
		t.Fatalf("aggregate double-counted an idle heartbeat: %+v", st)
	}
}

// TestAgentStatsMultiDeviceReboot checks the base is per-device: one
// device rebooting neither disturbs another's contribution nor the
// fleet's monotonicity.
func TestAgentStatsMultiDeviceReboot(t *testing.T) {
	s, _ := newAllocRig(t)
	devA, err := s.device("dev-a")
	if err != nil {
		t.Fatal(err)
	}
	devB, err := s.device("dev-b")
	if err != nil {
		t.Fatal(err)
	}
	s.onStats(devA, statsFrame(40, 4, 44))
	s.onStats(devB, statsFrame(60, 6, 66))
	before := s.AgentStats()
	if before.Received != 100 {
		t.Fatalf("two-device aggregate = %+v", before)
	}
	s.onStats(devA, statsFrame(1, 0, 1)) // A reboots
	after := s.AgentStats()
	if after.Received != 101 || after.Measurements != 10 {
		t.Fatalf("aggregate after A's reboot = %+v, want 101 received / 10 measured", after)
	}
	if after.Received < before.Received {
		t.Fatalf("fleet aggregate regressed: %d -> %d", before.Received, after.Received)
	}
}

// TestStatsReconnectLowerCountersOverConn replays the reboot scenario
// through the real connection path: the same device identity reconnects
// and reports lower counters over a fresh socket, and the exported
// aggregate must not move backwards.
func TestStatsReconnectLowerCountersOverConn(t *testing.T) {
	s := testServer(t, nil)
	session := func(received, measured uint64) {
		base := s.Counters().StatsReports
		clientNC, peer := net.Pipe()
		client := transport.NewConn(clientNC, transport.Options{WriteTimeout: 2 * time.Second})
		go s.HandleConn(peer)
		hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "rebooter"}
		if err := client.Send(hello.Encode()); err != nil {
			t.Fatal(err)
		}
		if err := client.Send(statsFrame(received, measured, received)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, "stats frame processed", func() bool {
			return s.Counters().StatsReports >= base+1
		})
		client.Close()
	}

	session(500, 50)
	waitFor(t, 5*time.Second, "first session aggregated", func() bool {
		return s.AgentStats().Received == 500
	})
	before := s.AgentStats()

	session(2, 1) // rebooted: counters restarted
	waitFor(t, 5*time.Second, "reboot folded into the base", func() bool {
		return s.Counters().StatsEpochs == 1
	})
	after := s.AgentStats()
	if after.Received < before.Received || after.Measurements < before.Measurements {
		t.Fatalf("aggregate regressed on reconnect: before %+v, after %+v", before, after)
	}
	if after.Received != 502 || after.Measurements != 51 {
		t.Fatalf("aggregate = %+v, want 502 received / 51 measured", after)
	}
}
