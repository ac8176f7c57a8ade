// Package admin is attestd's operational control plane: a small HTTP API
// for the runtime decisions the metrics surface cannot make — listing the
// fleet with per-device freshness and fast-path state, evicting a device,
// forcing a full re-attestation, inspecting and retuning admission-tier
// budgets, and draining the daemon — plus the /healthz and /readyz probes
// a load balancer steers by.
//
// The package owns the HTTP handlers and the JSON shapes; the daemon
// implements the Controller interface (internal/server's admin.go), so
// the dependency points only one way and the handlers are testable
// against a fake. Read endpoints are open (they expose nothing the
// Prometheus endpoint doesn't); mutating endpoints require the bearer
// token from Options and fail closed when none is configured.
package admin

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net/http"
)

// DeviceInfo is one prover's control-plane view: identity, tier
// placement, the freshness-stream positions replay protection rides on,
// and the fast-path arm state a force-reattest would drop.
type DeviceInfo struct {
	ID   string `json:"id"`
	Tier string `json:"tier"`

	// Counter/NonceSeq are the device's freshness-stream positions;
	// Outstanding is how many issued requests await a verdict.
	Counter     uint64 `json:"counter"`
	NonceSeq    uint64 `json:"nonce_seq"`
	Outstanding int    `json:"outstanding"`

	// FastArmed reports a live O(1) fast-path arm record (the device may
	// answer without a full memory MAC); FastEpoch is its write-monitor
	// epoch.
	FastArmed bool   `json:"fast_armed"`
	FastEpoch uint32 `json:"fast_epoch"`

	// HandedOff marks a husk whose state another daemon (or an evict)
	// has taken; the entry disappears once its session tears down.
	HandedOff bool `json:"handed_off,omitempty"`

	// Aggregated prover-side gate counters (monotonic across reboots).
	StatsEpochs  uint64 `json:"stats_epochs"`
	Received     uint64 `json:"received"`
	Measurements uint64 `json:"measurements"`
	FastHits     uint64 `json:"fast_responses"`
	GateRejected uint64 `json:"gate_rejected"`
}

// TierStatus is one admission tier's live configuration and counters.
type TierStatus struct {
	Name    string   `json:"name"`
	Class   uint8    `json:"class"`
	Default bool     `json:"default"`
	Match   []string `json:"match,omitempty"`

	RatePerSec        float64 `json:"rate_per_sec"`
	Burst             float64 `json:"burst"`
	PerConnRatePerSec float64 `json:"per_conn_rate_per_sec"`
	PerConnBurst      float64 `json:"per_conn_burst"`

	Admitted uint64 `json:"admitted"`
	Limited  uint64 `json:"limited"`
	Devices  int64  `json:"devices"`
}

// TierOverride retunes a tier at runtime. nil fields keep the current
// setting; an explicit 0 rate lifts that cap. The tier-wide bucket is
// rebuilt immediately, and the tier's connections admit against it from
// their next socket read; per-connection changes reach connections opened
// after the override.
type TierOverride struct {
	RatePerSec        *float64 `json:"rate_per_sec,omitempty"`
	Burst             *float64 `json:"burst,omitempty"`
	PerConnRatePerSec *float64 `json:"per_conn_rate_per_sec,omitempty"`
	PerConnBurst      *float64 `json:"per_conn_burst,omitempty"`
}

// ErrUnknownTier is returned by Controller.AdminSetTier for a tier name
// the policy does not declare.
var ErrUnknownTier = errors.New("admin: unknown tier")

// Controller is the daemon surface the handlers drive. *server.Server
// implements it; tests use a fake.
type Controller interface {
	// AdminDevices lists every device this daemon holds state for,
	// sorted by ID.
	AdminDevices() []DeviceInfo
	// AdminDevice reports one device (false = unknown).
	AdminDevice(id string) (DeviceInfo, bool)
	// AdminEvict removes a device's state with move-out semantics: its
	// session tears down and a reconnect starts a fresh stream. False =
	// unknown or already handed off.
	AdminEvict(id string) bool
	// AdminReattest drops the device's fast-path arm record and asks its
	// issue loop for an immediate round, forcing a full-memory MAC.
	// False = unknown or already handed off.
	AdminReattest(id string) bool
	// AdminTiers lists the admission tiers in policy order.
	AdminTiers() []TierStatus
	// AdminSetTier applies a runtime override, returning the updated
	// status (ErrUnknownTier for an undeclared name).
	AdminSetTier(name string, o TierOverride) (TierStatus, error)
	// AdminDrain starts a graceful drain (Shutdown) in the background.
	AdminDrain()
	// Healthy is the liveness signal; Ready the load-balancing one, with
	// a human-readable reason when false.
	Healthy() bool
	Ready() (bool, string)
}

// Options configures the control-plane surface.
type Options struct {
	// Token is the bearer token mutating endpoints require
	// (Authorization: Bearer <token>). Empty disables every mutating
	// endpoint — fail closed, because an unauthenticated evict is a
	// denial-of-service primitive.
	Token string
}

// NewMux builds the control-plane handler tree:
//
//	GET  /healthz                     liveness
//	GET  /readyz                      readiness (503 + reason while not ready)
//	GET  /admin/devices               fleet listing
//	GET  /admin/devices/{id}          one device
//	POST /admin/devices/{id}/evict    drop state, tear down session (auth)
//	POST /admin/devices/{id}/reattest force a full-MAC round (auth)
//	GET  /admin/tiers                 tier configuration + counters
//	POST /admin/tiers/{name}          runtime limit override (auth)
//	POST /admin/drain                 start a graceful drain (auth)
func NewMux(c Controller, opts Options) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !c.Healthy() {
			http.Error(w, "unhealthy", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := c.Ready(); !ok {
			http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready\n"))
	})

	mux.HandleFunc("GET /admin/devices", func(w http.ResponseWriter, r *http.Request) {
		devs := c.AdminDevices()
		writeJSON(w, http.StatusOK, map[string]any{"count": len(devs), "devices": devs})
	})
	mux.HandleFunc("GET /admin/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := c.AdminDevice(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown device", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /admin/devices/{id}/evict", authed(opts, func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !c.AdminEvict(id) {
			http.Error(w, "unknown device", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "evicted": true})
	}))
	mux.HandleFunc("POST /admin/devices/{id}/reattest", authed(opts, func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !c.AdminReattest(id) {
			http.Error(w, "unknown device", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "reattest": true})
	}))

	mux.HandleFunc("GET /admin/tiers", func(w http.ResponseWriter, r *http.Request) {
		tiers := c.AdminTiers()
		writeJSON(w, http.StatusOK, map[string]any{"count": len(tiers), "tiers": tiers})
	})
	mux.HandleFunc("POST /admin/tiers/{name}", authed(opts, func(w http.ResponseWriter, r *http.Request) {
		var o TierOverride
		if err := json.NewDecoder(r.Body).Decode(&o); err != nil {
			http.Error(w, "bad override body: "+err.Error(), http.StatusBadRequest)
			return
		}
		st, err := c.AdminSetTier(r.PathValue("name"), o)
		if errors.Is(err, ErrUnknownTier) {
			http.Error(w, "unknown tier", http.StatusNotFound)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}))

	mux.HandleFunc("POST /admin/drain", authed(opts, func(w http.ResponseWriter, r *http.Request) {
		c.AdminDrain()
		writeJSON(w, http.StatusAccepted, map[string]any{"draining": true})
	}))

	return mux
}

// authed gates a mutating handler on the bearer token; with no token
// configured it refuses outright rather than defaulting open.
func authed(opts Options, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if opts.Token == "" {
			http.Error(w, "mutating admin endpoints disabled: no admin token configured", http.StatusForbidden)
			return
		}
		want := "Bearer " + opts.Token
		got := r.Header.Get("Authorization")
		// Constant-time compare so the token cannot be guessed
		// byte-by-byte off the response timing.
		if len(got) != len(want) || subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
