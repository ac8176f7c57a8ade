// Command attestd is the verifier daemon of the networked deployment: it
// listens on a TCP address, accepts prover-agent connections
// (cmd/attest-agent), keeps per-device verifier state, issues
// authenticated attestation requests on a schedule and validates the
// returned memory measurements.
//
//	attestd -listen :7950 -master fleet-secret
//
// The periodic status line reports both halves of the read-out: the
// daemon's own counters and the fleet's aggregated gate statistics. The
// paper's §3.1 verifier impersonator sits on the channel, outside the
// daemon: see internal/adversary.Relay and go run ./examples/netflood.
package main

import (
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers; served only with -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"proverattest/internal/admin"
	"proverattest/internal/cluster"
	"proverattest/internal/journal"
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/provision"
	"proverattest/internal/server"
)

// tierFlags collects repeated -tier specs.
type tierFlags []string

func (t *tierFlags) String() string { return strings.Join(*t, ";") }
func (t *tierFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	log.SetFlags(0)
	var tiers tierFlags
	flag.Var(&tiers, "tier", "admission tier spec, repeatable: name:class=N,match=prefix[+prefix...],rate=R,burst=B,conn-rate=R,conn-burst=B (replaces -conn-rate as the admission layer; the two do not combine)")
	var (
		listen    = flag.String("listen", "127.0.0.1:7950", "TCP listen address")
		freshName = flag.String("freshness", "counter", "freshness policy: none | nonces | counter")
		authName  = flag.String("auth", "hmac-sha1", "request auth: none | hmac-sha1 | aes-128-cbc-mac | speck-64/128-cbc-mac | ecdsa-secp160r1")
		master    = flag.String("master", "proverattest-fleet-master", "master secret for per-device key derivation")

		attestEvery = flag.Duration("attest-every", time.Second, "per-prover attestation period")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "abandon unanswered requests after this long")
		maxInflight = flag.Int("max-inflight", 256, "global cap on outstanding requests")
		connRate    = flag.Float64("conn-rate", 0, "per-connection inbound frames/s budget (0 = unlimited)")
		fastPath    = flag.Bool("fastpath", false, "grant the O(1) fast path to provers with a clean write monitor")
		maxDevices  = flag.Int("max-devices", 0, "cap on distinct device identities (0 = default 4096)")

		nodeName   = flag.String("node", "", "cluster mode: this daemon's node name (empty = standalone)")
		peerList   = flag.String("peers", "", "cluster peers as comma-separated name=addr pairs (this node excluded)")
		advertise  = flag.String("advertise", "", "address peers and redirected agents should dial for this node (default: -listen)")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per daemon on the consistent-hash ring (0 = default 128)")
		probeEvery = flag.Duration("probe-every", 2*time.Second, "cluster peer liveness probe period")
		daemonRate = flag.Float64("daemon-rate", 0, "daemon-wide inbound frames/s budget across all connections (0 = unlimited)")

		stateDir     = flag.String("state-dir", "", "persist verifier state (snapshot+journal) under this directory; a restart recovers every device's freshness stream (empty = in-memory only)")
		fsyncPolicy  = flag.String("fsync", "100ms", "journal durability: always (write-ahead, restart adopts exact) | none | a sync interval like 100ms (restart adopts via freshness jump)")
		compactEvery = flag.Int("compact-every", 4096, "rewrite the full state snapshot after this many journal appends")

		defaultTier = flag.String("default-tier", "", "tier for devices no rule or advertisement claims (default: the first -tier)")
		adminAddr   = flag.String("admin", "", "serve the admin API and /healthz,/readyz probes on this address, e.g. localhost:9151 (empty = off)")
		adminToken  = flag.String("admin-token", "", "bearer token required on mutating admin endpoints (empty = mutations disabled)")

		statusEvery = flag.Duration("status-every", 5*time.Second, "status line period (0 = silent)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060 (empty = off)")
		metricsAddr = flag.String("metrics", "", "serve Prometheus /metrics on this address, e.g. localhost:9150 (empty = off)")
	)
	flag.Parse()

	fresh, err := protocol.ParseFreshnessKind(*freshName)
	if err != nil {
		log.Fatalf("attestd: %v", err)
	}
	auth, err := protocol.ParseAuthKind(*authName)
	if err != nil {
		log.Fatalf("attestd: %v", err)
	}

	cfg := server.Config{
		Freshness:         fresh,
		Auth:              auth,
		MasterSecret:      []byte(*master),
		Golden:            provision.GoldenRAM(),
		AttestEvery:       *attestEvery,
		RequestTimeout:    *reqTimeout,
		MaxInflight:       *maxInflight,
		PerConnRatePerSec: *connRate,
		FastPath:          *fastPath,
		MaxDevices:        *maxDevices,
	}
	if auth == protocol.AuthECDSA {
		key, err := provision.VerifierKeyPair()
		if err != nil {
			log.Fatalf("attestd: deriving ECDSA identity: %v", err)
		}
		cfg.ECDSAKey = key
	}
	cfg.MaxRatePerSec = *daemonRate
	if len(tiers) > 0 {
		specs, err := server.ParseTierSpecs(tiers)
		if err != nil {
			log.Fatalf("attestd: %v", err)
		}
		cfg.Tiers = &server.TierPolicy{Tiers: specs, Default: *defaultTier}
	} else if *defaultTier != "" {
		log.Fatalf("attestd: -default-tier needs at least one -tier")
	}

	var ps *server.PersistentStore
	if *stateDir != "" {
		policy, interval, err := journal.ParsePolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("attestd: %v", err)
		}
		ps, err = server.OpenPersistentStore(*stateDir, server.PersistOptions{
			Fsync:         policy,
			FsyncInterval: interval,
			CompactEvery:  *compactEvery,
		})
		if err != nil {
			log.Fatalf("attestd: opening state dir: %v", err)
		}
		cfg.Store = ps
		log.Printf("attestd: persistent state in %s (fsync=%s), %d devices recovered",
			*stateDir, policy, ps.RecoveredPending())
	}

	var node *cluster.Node
	if *nodeName != "" {
		self := *advertise
		if self == "" {
			self = *listen
		}
		members := []cluster.Member{{Name: *nodeName, Addr: self}}
		if *peerList != "" {
			for _, pair := range strings.Split(*peerList, ",") {
				name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
				if !ok || name == "" || addr == "" {
					log.Fatalf("attestd: -peers entry %q is not name=addr", pair)
				}
				members = append(members, cluster.Member{Name: name, Addr: addr})
			}
		}
		ms := cluster.NewMembership(*vnodes, members...)
		node, err = cluster.NewNode(*nodeName, ms, cluster.NodeOptions{})
		if err != nil {
			log.Fatalf("attestd: %v", err)
		}
		node.StartProber(*probeEvery, 3)
		cfg.Cluster = node
	}

	s, err := server.New(cfg)
	if err != nil {
		log.Fatalf("attestd: %v", err)
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("attestd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("attestd: pprof server: %v", err)
			}
		}()
	}

	// The exposition endpoint runs on its own listener and goroutine: a
	// scrape renders counters the serving path updates with atomics, so
	// observation never sits on the hot path.
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(s.Metrics()))
		go func() {
			log.Printf("attestd: metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("attestd: metrics server: %v", err)
			}
		}()
	}

	// The control plane shares nothing with the serving path: its own
	// listener, its own goroutine, and only exposition/mutation calls
	// into the daemon.
	if *adminAddr != "" {
		mux := admin.NewMux(s, admin.Options{Token: *adminToken})
		go func() {
			log.Printf("attestd: admin API on http://%s/admin/ (probes /healthz /readyz)", *adminAddr)
			if err := http.ListenAndServe(*adminAddr, mux); err != nil {
				log.Printf("attestd: admin server: %v", err)
			}
		}()
	}

	if *statusEvery > 0 {
		go func() {
			for range time.Tick(*statusEvery) {
				st := s.AgentStats()
				log.Printf("attestd: %v", s.Counters())
				log.Printf("attestd: fleet devices=%d received=%d measured=%d gate-rejected=%d (auth=%d fresh=%d malformed=%d)",
					s.Devices(), st.Received, st.Measurements, st.GateRejected(),
					st.AuthRejected, st.FreshnessRejected, st.Malformed)
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		log.Printf("attestd: shutting down")
		s.Close()
		if node != nil {
			node.Close()
		}
	}()

	if node != nil {
		log.Printf("attestd: cluster node %s, members %v", *nodeName, node.Membership().Alive())
	}
	log.Printf("attestd: listening on %s (freshness=%v auth=%v)", *listen, fresh, auth)
	err = s.ListenAndServe(*listen)
	if ps != nil {
		// Runs on the main goroutine so the process cannot exit before the
		// final flush and clean-shutdown sentinel hit disk — that sentinel
		// is what lets the next start adopt every stream live-exact
		// regardless of the fsync policy.
		if cerr := ps.Close(); cerr != nil {
			log.Printf("attestd: closing state journal: %v", cerr)
		}
	}
	if err != nil {
		log.Fatalf("attestd: %v", err)
	}
}
