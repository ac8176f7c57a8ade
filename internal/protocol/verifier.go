package protocol

import (
	"errors"
	"fmt"

	"proverattest/internal/crypto/hmac"
	"proverattest/internal/crypto/sha1"
)

// Verifier is the trusted party Vrf. It issues authenticated, fresh
// attestation requests and validates measurement responses against a
// golden image of the prover's measured memory.
type Verifier struct {
	freshness FreshnessKind
	auth      Authenticator
	attestKey []byte
	golden    []byte
	clock     func() uint64 // verifier-side clock, prover-clock milliseconds

	counter     uint64
	nonceSeq    uint64
	pending     map[uint64]*pendingAtt // outstanding requests by nonce
	pendingCmds map[uint64]*CommandReq // outstanding service commands

	// Fast-path state: the digest and monitor epoch of the last verified
	// *full* measurement. A fast response is accepted only against this
	// record — the verifier never trusts a prover's cleanliness claim, it
	// checks the claim against what it verified itself. haveFast is false
	// until a full measurement has been accepted (and again after any fast
	// mismatch), so cold start, daemon restart and desync all resolve the
	// same way: the next request demands a full MAC.
	allowFast  bool
	fastEpoch  uint32
	fastDigest [sha1.Size]byte
	haveFast   bool

	// armedBy is the nonce of the request whose full measurement set the
	// record above, lastFull the nonce of the newest request issued
	// without fast permission. The prover answers in order and re-arms on
	// every full measurement, so once a full request newer than armedBy is
	// out, the record may not be the digest the prover holds when it
	// reaches a request issued now: fast permission waits until the
	// newest full request's measurement is the one verified. Older full
	// requests do not count: over an in-order channel their answers would
	// have come first, so the prover dropped them.
	armedBy, lastFull uint64

	// answered is set once the device has answered one of this verifier's
	// requests, so its counters are known to reach the device. lost is
	// set when a request is abandoned unanswered before that: the
	// counters may be behind the device's (a daemon restarted without its
	// journal), and the device drops such requests as stale instead of
	// measuring them. See MeasuringFull.
	answered, lost bool

	// Stats for scenario reporting.
	Issued       uint64
	Accepted     uint64
	Rejected     uint64
	Unsolicited  uint64
	Expired      uint64 // requests abandoned after a response timeout
	FastAccepted uint64 // accepted via the O(1) fast path (subset of Accepted)
	FastRejected uint64 // fast responses refused (subset of Rejected)
}

// VerifierConfig assembles a verifier.
type VerifierConfig struct {
	// Freshness is the mechanism stamped into requests.
	Freshness FreshnessKind
	// Auth signs requests. Use NoAuth{} for the unauthenticated strawman.
	Auth Authenticator
	// AttestKey is K_Attest, shared with the prover's trust anchor, used
	// to validate measurement responses.
	AttestKey []byte
	// Golden is the expected content of the prover's measured memory.
	Golden []byte
	// Clock returns the verifier's current time in prover-clock
	// milliseconds. Timestamp freshness assumes the two clocks are
	// synchronised (§4.2); drift experiments perturb this function.
	Clock func() uint64
	// AllowFastPath permits provers with a write monitor to answer with
	// the O(1) fast-path MAC once a full measurement has been verified.
	AllowFastPath bool
}

// NewVerifier validates the configuration and builds the verifier.
func NewVerifier(cfg VerifierConfig) (*Verifier, error) {
	if cfg.Auth == nil {
		return nil, errors.New("protocol: verifier needs an authenticator")
	}
	if len(cfg.AttestKey) == 0 {
		return nil, errors.New("protocol: verifier needs K_Attest for response validation")
	}
	if cfg.Freshness == FreshTimestamp && cfg.Clock == nil {
		return nil, errors.New("protocol: timestamp freshness needs a clock")
	}
	v := &Verifier{
		freshness:   cfg.Freshness,
		auth:        cfg.Auth,
		attestKey:   append([]byte(nil), cfg.AttestKey...),
		golden:      append([]byte(nil), cfg.Golden...),
		clock:       cfg.Clock,
		allowFast:   cfg.AllowFastPath,
		pending:     make(map[uint64]*pendingAtt),
		pendingCmds: make(map[uint64]*CommandReq),
	}
	return v, nil
}

// pendingAtt is one outstanding attestation request plus the memoized
// measurement expected in its response. The expectation is an HMAC over
// the whole golden image, so it is computed at most once per request — on
// the first response claiming the nonce — rather than on every claim: a
// peer spamming bad responses against a known outstanding nonce costs the
// verifier one golden-image MAC total, not one per frame.
type pendingAtt struct {
	req      *AttReq
	want     [sha1.Size]byte
	haveWant bool

	// wantFast is the only fast MAC this request will accept, precomputed
	// at issue time from the verifier's own fast state (cheap: the input
	// is ~70 bytes, not the memory image). Precomputing here keeps the
	// per-frame fast accept a single constant-time compare — zero
	// allocations under hostile response traffic.
	wantFast     [sha1.Size]byte
	haveFastWant bool

	// refused is set when an answer claiming this request was refused.
	// The request stays pending — a forged answer must not retire the
	// genuine one — but it no longer counts as in measurement.
	refused bool
}

// NewRequest builds and signs the next attestation request. When the fast
// path is enabled and the newest full-measurement request has been
// verified (arming the fast record), the request grants fast-path
// permission and memoizes the one fast MAC it would accept.
func (v *Verifier) NewRequest() (*AttReq, error) {
	v.nonceSeq++
	req := &AttReq{
		Freshness: v.freshness,
		Auth:      v.auth.Kind(),
		Nonce:     v.nonceSeq,
		AllowFast: v.allowFast && v.haveFast && v.armedBy >= v.lastFull,
	}
	switch v.freshness {
	case FreshCounter:
		v.counter++
		req.Counter = v.counter
	case FreshTimestamp:
		req.Timestamp = v.clock()
	}
	tag, err := v.auth.Sign(req.SignedBytes())
	if err != nil {
		return nil, fmt.Errorf("protocol: signing request: %w", err)
	}
	req.Tag = tag
	p := &pendingAtt{req: req}
	if req.AllowFast {
		p.wantFast = FastMAC(v.attestKey, req, v.fastEpoch, &v.fastDigest)
		p.haveFastWant = true
	} else {
		v.lastFull = req.Nonce
	}
	v.pending[req.Nonce] = p
	v.Issued++
	return req, nil
}

// ExpectedMeasurement computes the measurement the prover should report
// for req over the golden memory image: HMAC-SHA1(K_Attest, signed-request
// ‖ memory). Binding the request into the MAC prevents response replay.
func (v *Verifier) ExpectedMeasurement(req *AttReq) [sha1.Size]byte {
	return Measure(v.attestKey, req, v.golden)
}

// Measure is the measurement function shared by verifier and trust anchor.
func Measure(attestKey []byte, req *AttReq, memory []byte) [sha1.Size]byte {
	m := hmac.NewSHA1(attestKey)
	m.Write(req.SignedBytes())
	m.Write(memory)
	var out [sha1.Size]byte
	copy(out[:], m.Sum(nil))
	return out
}

// Static check errors, pre-allocated so the hot rejection branches of
// CheckDecodedResponse stay allocation-free under hostile traffic.
var (
	// ErrUnsolicited marks a response that answers no outstanding nonce.
	ErrUnsolicited = errors.New("protocol: response to unknown nonce")
	// ErrMeasurementMismatch marks a response whose measurement deviates
	// from the golden image.
	ErrMeasurementMismatch = errors.New("protocol: measurement mismatch — prover state deviates from golden image")
	// ErrFastMismatch marks a fast-path response that does not match the
	// verifier's record of the last verified digest and epoch (or arrived
	// when no fast path was offered). The verifier drops its fast state,
	// so subsequent requests demand the full-memory MAC.
	ErrFastMismatch = errors.New("protocol: fast-path response does not match verified digest/epoch record")
)

// CheckResponse validates a raw response frame. A response is accepted
// when it matches an outstanding request's nonce and carries the expected
// measurement; the request is then retired.
func (v *Verifier) CheckResponse(raw []byte) (bool, error) {
	resp, err := DecodeAttResp(raw)
	if err != nil {
		v.Rejected++
		return false, err
	}
	return v.CheckDecodedResponse(resp)
}

// CheckDecodedResponse validates an already-decoded response — the
// zero-allocation half of CheckResponse, for callers (internal/server)
// that decode outside the verifier lock with DecodeAttRespInto. The
// response is only read, never retained.
func (v *Verifier) CheckDecodedResponse(resp *AttResp) (bool, error) {
	p, ok := v.pending[resp.Nonce]
	if !ok {
		v.Unsolicited++
		return false, ErrUnsolicited
	}
	if resp.Fast {
		// Fast responses are only accepted against the MAC memoized at
		// issue time, which binds the epoch and digest the verifier
		// itself recorded from the last accepted full measurement. A
		// prover lying about cleanliness — its epoch advanced past the
		// verified record, or its digest never verified — lands here.
		if !p.haveFastWant || !hmac.Equal(p.wantFast[:], resp.Measurement[:]) {
			v.Rejected++
			v.FastRejected++
			v.haveFast = false
			p.refused = true
			return false, ErrFastMismatch
		}
		delete(v.pending, resp.Nonce)
		v.Accepted++
		v.FastAccepted++
		v.answered = true
		return true, nil
	}
	if !p.haveWant {
		p.want = v.ExpectedMeasurement(p.req)
		p.haveWant = true
	}
	if !hmac.Equal(p.want[:], resp.Measurement[:]) {
		v.Rejected++
		// A deviating prover must stay on the full MAC until a verified
		// full measurement re-establishes trust.
		v.haveFast = false
		p.refused = true
		return false, ErrMeasurementMismatch
	}
	delete(v.pending, resp.Nonce)
	v.Accepted++
	v.answered = true
	// A verified full measurement from a monitor-equipped prover (epoch
	// nonzero: the rearm that preceded this measurement) establishes the
	// record fast responses will be checked against.
	if v.allowFast && resp.Epoch != 0 {
		v.fastDigest = p.want
		v.fastEpoch = resp.Epoch
		v.haveFast = true
		v.armedBy = resp.Nonce
	}
	return true, nil
}

// DropFastState discards the verifier's fast-path arm record, forcing the
// device's next attestation round to demand (and verify) a full memory
// MAC. This is the force-reattest primitive: an operator who suspects a
// device re-establishes ground truth instead of trusting the O(1)
// unchanged-since-last-attest claim. A verifier with no record is a no-op;
// the report says whether anything was dropped.
func (v *Verifier) DropFastState() bool {
	had := v.haveFast
	v.haveFast = false
	return had
}

// HasFastState reports whether the verifier holds a verified digest/epoch
// record, the precondition for granting fast-path permission (see
// NewRequest).
func (v *Verifier) HasFastState() bool { return v.haveFast }

// MeasuringFull reports whether the device can be taken to be measuring
// the request nonce, a full-measurement one: the fast path is on, the
// request withheld fast permission, it still awaits its answer, and no
// answer to it has been refused. NewRequest grants fast permission only
// once the newest full request has been verified, so a caller issuing on
// a schedule shorter than the device's full measurement holds its next
// request while its last one is being measured; otherwise every request
// demands one more full MAC, the newest is never the one verified and the
// fast path never engages. Once a request has been abandoned before the
// device ever answered, MeasuringFull reports false until the device
// answers: the verifier's counters may be behind the device's, an
// unanswered request may have been dropped as stale, and waiting on each
// would slow the counters' catch-up to one per abandon timeout.
func (v *Verifier) MeasuringFull(nonce uint64) bool {
	if !v.allowFast || (v.lost && !v.answered) {
		return false
	}
	p, ok := v.pending[nonce]
	return ok && !p.req.AllowFast && !p.refused
}

// NewCommand builds and signs a service command (secure update, secure
// erase, clock sync). Commands draw from the same nonce, counter and
// timestamp streams as attestation requests — the prover keeps one
// freshness state for everything, so an adversary cannot replay a command
// "around" the attestation counter.
func (v *Verifier) NewCommand(kind CommandKind, body []byte) (*CommandReq, error) {
	v.nonceSeq++
	req := &CommandReq{
		Kind:      kind,
		Freshness: v.freshness,
		Auth:      v.auth.Kind(),
		Nonce:     v.nonceSeq,
		Body:      append([]byte(nil), body...),
	}
	switch v.freshness {
	case FreshCounter:
		v.counter++
		req.Counter = v.counter
	case FreshTimestamp:
		req.Timestamp = v.clock()
	}
	tag, err := v.auth.Sign(req.SignedBytes())
	if err != nil {
		return nil, fmt.Errorf("protocol: signing command: %w", err)
	}
	req.Tag = tag
	v.pendingCmds[req.Nonce] = req
	v.Issued++
	return req, nil
}

// CheckCommandResponse validates a raw command-response frame: it must
// answer an outstanding command and carry a valid K_Attest tag. The
// command is retired on success (any status), since the anchor
// authenticated its verdict either way.
func (v *Verifier) CheckCommandResponse(raw []byte) (*CommandResp, error) {
	resp, err := DecodeCommandResp(raw)
	if err != nil {
		v.Rejected++
		return nil, err
	}
	req, ok := v.pendingCmds[resp.Nonce]
	if !ok {
		v.Unsolicited++
		return nil, fmt.Errorf("protocol: command response to unknown nonce %d", resp.Nonce)
	}
	if resp.Kind != req.Kind {
		v.Rejected++
		return nil, fmt.Errorf("protocol: command response kind %v for a %v command", resp.Kind, req.Kind)
	}
	if !resp.VerifyTag(v.attestKey) {
		v.Rejected++
		return nil, errors.New("protocol: command response tag invalid")
	}
	delete(v.pendingCmds, resp.Nonce)
	v.Accepted++
	v.answered = true
	return resp, nil
}

// Outstanding reports how many requests await responses.
func (v *Verifier) Outstanding() int { return len(v.pending) + len(v.pendingCmds) }

// IsPending reports whether the attestation request with the given nonce
// still awaits a response — the retry loop's liveness probe.
func (v *Verifier) IsPending(nonce uint64) bool {
	_, ok := v.pending[nonce]
	return ok
}

// Abandon retires an unanswered request after a timeout, so a retry can
// take its place. Retries must be *new* requests: with counter freshness
// the prover may already have consumed the old counter (request processed,
// response lost), and re-sending the identical frame would be rejected as
// a replay — the at-most-once property working as intended.
func (v *Verifier) Abandon(nonce uint64) bool {
	if _, ok := v.pending[nonce]; !ok {
		return false
	}
	delete(v.pending, nonce)
	v.Expired++
	if !v.answered {
		v.lost = true
	}
	return true
}

// IsCommandPending reports whether the service command with the given
// nonce still awaits a response.
func (v *Verifier) IsCommandPending(nonce uint64) bool {
	_, ok := v.pendingCmds[nonce]
	return ok
}

// AbandonCommand retires an unanswered service command after a timeout,
// mirroring Abandon for the command map. The two maps are deliberately
// separate retirement paths: an attestation nonce and a command nonce never
// collide (one nonceSeq feeds both), but a response of the wrong type must
// not retire the other map's entry.
func (v *Verifier) AbandonCommand(nonce uint64) bool {
	if _, ok := v.pendingCmds[nonce]; !ok {
		return false
	}
	delete(v.pendingCmds, nonce)
	v.Expired++
	return true
}

// LastCounter reports the verifier's counter state (for tests).
func (v *Verifier) LastCounter() uint64 { return v.counter }

// VerifierState is the portable freshness record of one device's
// verifier: everything a different daemon needs to continue the device's
// nonce/counter stream without ever re-issuing a value the device has
// already seen, plus the RATA fast-path arm record. Outstanding requests
// are deliberately not part of the state — they are bound to the
// connection that issued them and die with it (the issuing daemon's
// abandon timers retire them), while the streams below are what replay
// protection is built on and must survive.
type VerifierState struct {
	Counter  uint64
	NonceSeq uint64

	// Fast-path arm record: the digest/epoch of the last verified full
	// measurement. Valid only when HaveFast.
	FastEpoch  uint32
	FastDigest [sha1.Size]byte
	HaveFast   bool
}

// ExportState snapshots the verifier's freshness and fast-path state for
// handoff to another daemon.
func (v *Verifier) ExportState() VerifierState {
	return VerifierState{
		Counter:    v.counter,
		NonceSeq:   v.nonceSeq,
		FastEpoch:  v.fastEpoch,
		FastDigest: v.fastDigest,
		HaveFast:   v.haveFast,
	}
}

// ImportState adopts a handed-off freshness record, replacing the
// verifier's own. Any outstanding requests are dropped (an importing
// daemon has none of its own; a previous owner's pending nonces must not
// be answerable here). The fast-path arm record is honoured only if this
// verifier allows the fast path at all.
//
// Callers importing from a *replica* rather than from the live owner must
// add a safety margin to Counter/NonceSeq and clear HaveFast first — see
// cluster.Snapshot.JumpForReplica — because a replica may lag the owner's
// true stream position. Both streams are strictly monotone, so jumping
// forward is always freshness-safe; the cost of a cleared fast record is
// exactly one full-MAC round.
func (v *Verifier) ImportState(st VerifierState) {
	v.counter = st.Counter
	v.nonceSeq = st.NonceSeq
	v.fastEpoch = st.FastEpoch
	v.fastDigest = st.FastDigest
	v.haveFast = st.HaveFast && v.allowFast
	clear(v.pending)
	clear(v.pendingCmds)
	v.armedBy, v.lastFull = 0, 0
}

// DeriveDeviceKey derives a per-device K_Attest from the deployment's
// master secret: HMAC-SHA1(master, "K_Attest" ‖ deviceID). Fleet
// deployments must not share one key across provers — a single roaming
// compromise would otherwise let the adversary impersonate the verifier
// to the whole fleet.
func DeriveDeviceKey(master []byte, deviceID string) [sha1.Size]byte {
	m := hmac.NewSHA1(master)
	m.Write([]byte("K_Attest"))
	m.Write([]byte(deviceID))
	var out [sha1.Size]byte
	copy(out[:], m.Sum(nil))
	return out
}
