package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proverattest/internal/obs"
)

// This file is the daemon's tiered admission layer: the generalisation of
// the single flat per-connection rate limit into per-device-class QoS.
// The paper's §3.1 asymmetry argument is ultimately about availability —
// keep serving honest traffic while an adversary floods — and at fleet
// scale the flood and the honest traffic belong to *different device
// classes*. A tier gives each class its own admission budget (a shared
// tier-wide token bucket plus per-connection buckets, both refilled at the
// serve loop's one clock reading per socket read, at which it admits
// every frame of the read; see bucket.go), so a flooding class
// exhausts its own tokens and dies at the cheap gate without touching
// another class's budget. The serve loop resolves a connection's tier and
// the tier's bucket once per socket read, at that reading (serveRead), so
// a retune or a move to another tier reaches a connection at its next
// read. The tier-isolation drill (TestGoldTierIsolation, built under the
// drill tag and run in its own CI step) is the proof.
//
// Tier resolution order (PROTOCOL.md "Admission tiers"):
//
//  1. server-side device-ID prefix rules (TierSpec.Match) — longest
//     match wins; operator configuration is authoritative,
//  2. the hello's advertised tier class (Hello.Tier) when some tier
//     declares that class — an unauthenticated hint, honoured only when
//     no ID rule matched,
//  3. the policy's default tier.

// TierSpec declares one admission tier of a TierPolicy.
type TierSpec struct {
	// Name labels the tier's metric series
	// (attestd_tier_admitted_total{tier="..."}) and the admin API;
	// required, unique within the policy.
	Name string
	// Class is the hello-advertised tier class that selects this tier
	// (0 = this tier cannot be selected by advertisement).
	Class uint8
	// Match routes device IDs with any of these prefixes into this tier,
	// regardless of what the hello advertised. The longest matching
	// prefix across the whole policy wins.
	Match []string
	// RatePerSec is the tier-wide inbound-frame budget shared by every
	// connection in the tier (0 = unlimited). Over-budget frames die at
	// the gate as rejects{cause="tier_limited"}.
	RatePerSec float64
	// Burst is the tier bucket depth (default max(64, RatePerSec)).
	Burst float64
	// PerConnRatePerSec is each connection's budget within the tier
	// (0 = unlimited), the old flat limit made per-class.
	PerConnRatePerSec float64
	// PerConnBurst is the per-connection bucket depth
	// (default max(16, PerConnRatePerSec)).
	PerConnBurst float64
}

// TierPolicy maps device classes to admission tiers. The zero policy is
// invalid; a nil *TierPolicy in Config selects the implicit single-tier
// policy built from the flat Config.PerConnRatePerSec fields.
type TierPolicy struct {
	Tiers []TierSpec
	// Default names the tier for devices no rule or advertisement
	// claims (empty = the first tier).
	Default string
}

// ParseTierSpecs parses the attestd -tier flag syntax, one spec per
// string: name:class=N,match=prefix[+prefix...],rate=R,burst=B,
// conn-rate=R,conn-burst=B — every key optional, any order.
func ParseTierSpecs(specs []string) ([]TierSpec, error) {
	out := make([]TierSpec, 0, len(specs))
	for _, raw := range specs {
		name, opts, _ := strings.Cut(raw, ":")
		if name == "" {
			return nil, fmt.Errorf("server: tier spec %q has no name", raw)
		}
		ts := TierSpec{Name: name}
		if opts != "" {
			for _, kv := range strings.Split(opts, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("server: tier spec %q: %q is not key=value", raw, kv)
				}
				switch key {
				case "class":
					var c int
					if _, err := fmt.Sscanf(val, "%d", &c); err != nil || c < 0 || c > 255 {
						return nil, fmt.Errorf("server: tier spec %q: class %q is not 0..255", raw, val)
					}
					ts.Class = uint8(c)
				case "match":
					ts.Match = strings.Split(val, "+")
				case "rate":
					if _, err := fmt.Sscanf(val, "%g", &ts.RatePerSec); err != nil {
						return nil, fmt.Errorf("server: tier spec %q: bad rate %q", raw, val)
					}
				case "burst":
					if _, err := fmt.Sscanf(val, "%g", &ts.Burst); err != nil {
						return nil, fmt.Errorf("server: tier spec %q: bad burst %q", raw, val)
					}
				case "conn-rate":
					if _, err := fmt.Sscanf(val, "%g", &ts.PerConnRatePerSec); err != nil {
						return nil, fmt.Errorf("server: tier spec %q: bad conn-rate %q", raw, val)
					}
				case "conn-burst":
					if _, err := fmt.Sscanf(val, "%g", &ts.PerConnBurst); err != nil {
						return nil, fmt.Errorf("server: tier spec %q: bad conn-burst %q", raw, val)
					}
				default:
					return nil, fmt.Errorf("server: tier spec %q: unknown key %q", raw, key)
				}
			}
		}
		out = append(out, ts)
	}
	return out, nil
}

// tier is one admission tier at runtime. The limit fields live behind mu
// so the admin API can retune a live daemon; the serving path never takes
// that mutex — it loads the bucket pointer atomically once per socket
// read, and the bucket carries its own lock, which a refusal does not
// take.
type tier struct {
	name      string
	class     uint8
	match     []string
	isDefault bool

	mu        sync.Mutex // guards the four limit fields (admin overrides)
	rate      float64
	burst     float64
	connRate  float64
	connBurst float64

	// bucket is the tier-wide shared budget; nil = unlimited, so a read
	// in an uncapped tier asks it nothing.
	bucket atomic.Pointer[lockedBucket]

	admitted *obs.Counter  // attestd_tier_admitted_total{tier=name}
	limited  atomic.Uint64 // frames refused by this tier's shared bucket
	devices  atomic.Int64  // devices currently resolved into this tier
}

// connBucketAt builds a per-connection bucket with the tier's current
// per-conn limits, full at monotonic reading now. A nil return means
// per-conn unlimited. Retunes apply to connections opened after the
// override; established connections keep the bucket they were admitted
// with (documented admin-API semantics).
func (t *tier) connBucketAt(now time.Duration) *tokenBucket {
	t.mu.Lock()
	rate, burst := t.connRate, t.connBurst
	t.mu.Unlock()
	if rate <= 0 {
		return nil
	}
	return newTokenBucket(rate, burst, now)
}

// limits snapshots the tier's current limit configuration.
func (t *tier) limits() (rate, burst, connRate, connBurst float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rate, t.burst, t.connRate, t.connBurst
}

// setLimits applies an admin override. Negative values keep the current
// setting; a zero rate lifts the corresponding cap. The tier-wide bucket
// is rebuilt (full at the new burst), and each of the tier's connections
// admits against the new budget from its next socket read; per-conn
// changes reach only new connections.
func (t *tier) setLimits(rate, burst, connRate, connBurst float64) {
	t.mu.Lock()
	if rate >= 0 {
		t.rate = rate
	}
	if burst >= 0 {
		t.burst = burst
	}
	if connRate >= 0 {
		t.connRate = connRate
	}
	if connBurst >= 0 {
		t.connBurst = connBurst
	}
	t.burst = defaultBurst(t.rate, t.burst, 64)
	t.connBurst = defaultBurst(t.connRate, t.connBurst, 16)
	rebuilt := (*lockedBucket)(nil)
	if t.rate > 0 {
		rebuilt = newLockedBucket(t.rate, t.burst, monoNow())
	}
	t.mu.Unlock()
	t.bucket.Store(rebuilt)
}

// defaultBurst resolves a bucket depth: an explicit burst wins, an unset
// one defaults to max(floor, rate), and an uncapped rate needs none.
func defaultBurst(rate, burst, floor float64) float64 {
	if rate <= 0 {
		return burst
	}
	if burst > 0 {
		return burst
	}
	if rate > floor {
		return rate
	}
	return floor
}

// tierSet is the daemon's compiled tier policy.
type tierSet struct {
	tiers   []*tier
	byClass [256]*tier
	def     *tier
}

const tierAdmittedHelp = "Frames admitted past the tier admission gate, by tier."

// buildTiers compiles a TierPolicy (or the implicit single-tier policy
// when pol is nil) and registers the per-tier series. Counters must be
// preallocated here: the serving path records with atomics only.
func buildTiers(pol *TierPolicy, flatRate float64, flatBurst int, reg *obs.Registry) (*tierSet, error) {
	if pol == nil {
		// Back-compat: the flat Config.PerConnRatePerSec fields become a
		// single default tier with the same per-connection bucket and no
		// tier-wide cap — byte-identical admission decisions to the old
		// limiter (pinned by TestDefaultTierMatchesFlatLimiter).
		pol = &TierPolicy{Tiers: []TierSpec{{
			Name:              "default",
			PerConnRatePerSec: flatRate,
			PerConnBurst:      float64(flatBurst),
		}}}
	}
	if len(pol.Tiers) == 0 {
		return nil, errors.New("server: tier policy has no tiers")
	}
	ts := &tierSet{}
	seen := make(map[string]bool, len(pol.Tiers))
	for _, spec := range pol.Tiers {
		if spec.Name == "" {
			return nil, errors.New("server: tier with empty name")
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("server: duplicate tier name %q", spec.Name)
		}
		seen[spec.Name] = true
		for _, p := range spec.Match {
			if p == "" {
				return nil, fmt.Errorf("server: tier %q has an empty match prefix", spec.Name)
			}
		}
		t := &tier{
			name:      spec.Name,
			class:     spec.Class,
			match:     append([]string(nil), spec.Match...),
			rate:      spec.RatePerSec,
			burst:     defaultBurst(spec.RatePerSec, spec.Burst, 64),
			connRate:  spec.PerConnRatePerSec,
			connBurst: defaultBurst(spec.PerConnRatePerSec, spec.PerConnBurst, 16),
			admitted:  reg.Counter("attestd_tier_admitted_total", tierAdmittedHelp, obs.L("tier", spec.Name)),
		}
		if t.rate > 0 {
			t.bucket.Store(newLockedBucket(t.rate, t.burst, monoNow()))
		}
		if spec.Class != 0 {
			if ts.byClass[spec.Class] != nil {
				return nil, fmt.Errorf("server: tiers %q and %q both claim class %d",
					ts.byClass[spec.Class].name, spec.Name, spec.Class)
			}
			ts.byClass[spec.Class] = t
		}
		ts.tiers = append(ts.tiers, t)
	}
	ts.def = ts.tiers[0]
	if pol.Default != "" {
		ts.def = nil
		for _, t := range ts.tiers {
			if t.name == pol.Default {
				ts.def = t
			}
		}
		if ts.def == nil {
			return nil, fmt.Errorf("server: default tier %q is not declared", pol.Default)
		}
	}
	ts.def.isDefault = true
	return ts, nil
}

// resolve picks the tier for a device: longest configured ID-prefix match
// first, then the advertised class, then the default. Hello-time only —
// never on the per-frame path.
func (ts *tierSet) resolve(deviceID string, advertised uint8) *tier {
	var best *tier
	bestLen := -1
	for _, t := range ts.tiers {
		for _, p := range t.match {
			if len(p) > bestLen && strings.HasPrefix(deviceID, p) {
				best, bestLen = t, len(p)
			}
		}
	}
	if best != nil {
		return best
	}
	if advertised != 0 {
		if t := ts.byClass[advertised]; t != nil {
			return t
		}
	}
	return ts.def
}

// byName finds a tier by its admin/metrics label.
func (ts *tierSet) byName(name string) *tier {
	for _, t := range ts.tiers {
		if t.name == name {
			return t
		}
	}
	return nil
}
