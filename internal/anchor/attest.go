package anchor

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"

	"proverattest/internal/crypto/cost"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
)

// parseCost is the modeled cycle cost of request framing checks.
const parseCost = cost.Cycles(128)

// HandleRequest submits an incoming request frame to Code_Attest. The
// gate job authenticates the request (§4.1) and checks freshness against
// the protected state (§4.2); only then does the expensive memory
// measurement run — atomically (SMART-style, the default) or in chunks
// (TyTAN-style real-time compliance, cfg.MeasurementChunk > 0), each chunk
// a separate job so interrupts and queued application work interleave.
// respond, if non-nil, receives the encoded response when the measurement
// completes on the simulated timeline.
func (a *Anchor) HandleRequest(payload []byte, respond func([]byte)) {
	frame := append([]byte(nil), payload...)
	var out []byte
	a.M.Submit(a.CodeAttest, func(e *mcu.Exec) {
		req, key, ok := a.gate(e, frame)
		if !ok {
			return
		}
		if out = a.tryFastPath(e, req, key); out != nil {
			return
		}
		chunk := a.cfg.MeasurementChunk
		if chunk == 0 || chunk >= a.cfg.MeasuredRegion.Size {
			out = a.measureAtomic(e, req, key)
			return
		}
		a.measureChunked(e, req, key, respond)
	}, func(*mcu.Exec) {
		if respond != nil && out != nil {
			respond(out)
		}
	})
}

// gate runs the §4.1/§4.2 checks shared by the atomic and chunked paths.
func (a *Anchor) gate(e *mcu.Exec, frame []byte) (*protocol.AttReq, []byte, bool) {
	a.Stats.Received++
	e.Tick(parseCost)
	req, err := protocol.DecodeAttReq(frame)
	if err != nil {
		a.Stats.Malformed++
		return nil, nil, false
	}
	if req.Auth != a.cfg.AuthKind || req.Freshness != a.cfg.Freshness {
		// Scheme confusion is a framing violation: the anchor enforces its
		// provisioned policy, not whatever the frame claims.
		a.Stats.Malformed++
		return nil, nil, false
	}

	// Fetch K_Attest from its protected location. This read is the EA-MAC
	// path: only Code_Attest's PC region satisfies the key rule.
	key, fault := e.Read(a.keyAddr, KeySize)
	if fault != nil {
		a.Stats.Faults++
		return nil, nil, false
	}

	auth, authErr := a.authenticator(key)
	if authErr != nil {
		a.Stats.Faults++
		return nil, nil, false
	}
	ok, c := auth.Verify(req.SignedBytes(), req.Tag)
	e.Tick(c)
	if !ok {
		a.Stats.AuthRejected++
		return nil, nil, false
	}

	if !a.checkFreshness(e, req.Nonce, req.Counter, req.Timestamp) {
		a.Stats.FreshnessRejected++
		return nil, nil, false
	}
	return req, key, true
}

// tryFastPath is the RATA O(1) response: when the request grants fast
// permission and the write monitor reports the measured region untouched
// since the last rearm, answer with the fast MAC over the stored digest
// and the monitor epoch instead of re-MACing all of memory. Returns nil
// when the full measurement must run. All monitor and digest accesses go
// through the bus as Code_Attest — the same EA-MPU-checked path every
// other anchor access uses.
func (a *Anchor) tryFastPath(e *mcu.Exec, req *protocol.AttReq, key []byte) []byte {
	if a.Mon == nil || !req.AllowFast {
		return nil
	}
	status, fault := e.Load32(mcu.MonStatusAddr)
	if fault != nil {
		a.Stats.Faults++
		return nil
	}
	epoch, fault := e.Load32(mcu.MonEpochAddr)
	if fault != nil {
		a.Stats.Faults++
		return nil
	}
	// Epoch zero means no full measurement has rearmed the latch yet; the
	// fast path never vouches for memory it has not measured.
	if status != 0 || epoch == 0 {
		return nil
	}
	raw, fault := e.Read(LastDigestAddr, sha1.Size)
	if fault != nil {
		a.Stats.Faults++
		return nil
	}
	var digest [sha1.Size]byte
	copy(digest[:], raw)
	e.Tick(cost.HMACSHA1(protocol.FastMACMessageLen))
	mac := protocol.FastMAC(key, req, epoch, &digest)
	a.Stats.FastResponses++
	return (&protocol.AttResp{
		Fast:        true,
		Epoch:       epoch,
		Nonce:       req.Nonce,
		Counter:     req.Counter,
		Measurement: mac,
	}).Encode()
}

// monitorRearm clears the dirty latch through the CTRL register and
// returns the new epoch — zero when no monitor is installed or the rearm
// faulted (either way the response carries epoch 0 and the verifier never
// arms its fast state: fail-safe toward the full MAC). It must run
// *before* the measurement touches memory: a store racing the measurement
// then re-latches the bit, which is what makes the fast path
// TOCTOU-resistant.
func (a *Anchor) monitorRearm(e *mcu.Exec) uint32 {
	if a.Mon == nil {
		return 0
	}
	if fault := e.Store32(mcu.MonCtrlAddr, mcu.MonRearm); fault != nil {
		a.Stats.Faults++
		return 0
	}
	epoch, fault := e.Load32(mcu.MonEpochAddr)
	if fault != nil {
		a.Stats.Faults++
		return 0
	}
	return epoch
}

// storeDigest records a completed full measurement for the fast path to
// vouch for. The words live in anchor SRAM, outside the measured image,
// so the store does not re-latch the monitor.
func (a *Anchor) storeDigest(e *mcu.Exec, meas [sha1.Size]byte) {
	if a.Mon == nil {
		return
	}
	if fault := e.Write(LastDigestAddr, meas[:]); fault != nil {
		a.Stats.Faults++
	}
}

// measureAtomic is the uninterruptible measurement: one pass over the
// whole measured region inside the current job. Nothing can execute on
// the core between the first byte read and the response — which is
// exactly why it is TOCTOU-free, and why the region can be hashed in
// place.
func (a *Anchor) measureAtomic(e *mcu.Exec, req *protocol.AttReq, key []byte) []byte {
	epoch := a.monitorRearm(e)
	mem, fault := e.View(a.cfg.MeasuredRegion.Start, a.cfg.MeasuredRegion.Size)
	if fault != nil {
		a.Stats.Faults++
		return nil
	}
	e.Tick(cost.HMACSHA1(len(req.SignedBytes()) + len(mem)))
	meas := protocol.Measure(key, req, mem)
	a.Stats.Measurements++
	a.storeDigest(e, meas)
	return (&protocol.AttResp{
		Epoch:       epoch,
		Nonce:       req.Nonce,
		Counter:     req.Counter,
		Measurement: meas,
	}).Encode()
}

// measureChunked streams the measurement as a chain of jobs, one per
// cfg.MeasurementChunk bytes. Between chunks the core serves interrupts
// and queued application work, bounding the primary task's latency at one
// chunk instead of the full ≈754 ms — the "attestation compliant with
// real-time operation" the paper cites ([5]/TyTAN). The price is the
// paper's footnote-1 caveat: execution interleaves with measurement, so a
// resident adversary can relocate itself around the measurement cursor
// (the TOCTOU attack demonstrated in internal/core's experiments).
//
// The streaming MAC state lives in closure variables, modelling scratch in
// the anchor's SRAM; the chain is reentrant — concurrent requests get
// independent state.
func (a *Anchor) measureChunked(e *mcu.Exec, req *protocol.AttReq, key []byte, respond func([]byte)) {
	region := a.cfg.MeasuredRegion
	chunkSize := a.cfg.MeasurementChunk
	// Rearm before the first chunk reads memory: any store interleaved
	// with the chunk chain re-latches the bit, so a torn measurement can
	// never back a fast response.
	epoch := a.monitorRearm(e)
	state := hmac.New(sha1.New, key)
	state.Write(req.SignedBytes()) //nolint:errcheck // never fails
	// The fixed HMAC overhead (key pads, finalisation) and the request
	// echo are charged here; chunks then pay the pure per-block cost.
	e.Tick(cost.HMACSHA1(len(req.SignedBytes())))

	var step func(offset uint32)
	step = func(offset uint32) {
		n := chunkSize
		if offset+n > region.Size {
			n = region.Size - offset
		}
		var out []byte
		var aborted bool
		a.M.Submit(a.CodeAttest, func(e *mcu.Exec) {
			// Read and hashed within one job: the chunk is hashed in
			// place.
			data, fault := e.View(region.Start+mcu.Addr(offset), n)
			if fault != nil {
				a.Stats.Faults++
				aborted = true
				return
			}
			e.Tick(cost.SHA1HMACPerBlock * cost.Cycles((int(n)+63)/64))
			state.Write(data) //nolint:errcheck
			if offset+n == region.Size {
				var meas [sha1.Size]byte
				state.Sum(meas[:0])
				a.Stats.Measurements++
				a.storeDigest(e, meas)
				out = (&protocol.AttResp{
					Epoch:       epoch,
					Nonce:       req.Nonce,
					Counter:     req.Counter,
					Measurement: meas,
				}).Encode()
			}
		}, func(*mcu.Exec) {
			if aborted {
				return
			}
			if out != nil {
				if respond != nil {
					respond(out)
				}
				return
			}
			step(offset + n)
		})
	}
	step(0)
}

// authenticator returns the request authenticator keyed with the K_Attest
// bytes just read from protected memory. Symmetric schedules are cached so
// steady-state verification pays only the per-block cost, matching the
// paper's "key expansion done in advance" accounting; the cache is
// invalidated if the key bytes change (e.g. a key-overwrite attack on an
// unprotected flash key — the anchor then faithfully uses the new key, and
// the adversary wins, as §5 predicts).
func (a *Anchor) authenticator(key []byte) (protocol.Authenticator, error) {
	if a.cfg.AuthKind == protocol.AuthECDSA {
		if a.cachedAuth == nil {
			a.cachedAuth = protocol.NewECDSAVerifier(a.cfg.VerifierPublic)
		}
		return a.cachedAuth, nil
	}
	var k [20]byte
	copy(k[:], key)
	if a.cachedAuth != nil && k == a.cachedAuthKey {
		return a.cachedAuth, nil
	}
	var (
		auth protocol.Authenticator
		err  error
	)
	switch a.cfg.AuthKind {
	case protocol.AuthNone:
		auth = protocol.NoAuth{}
	case protocol.AuthHMACSHA1:
		auth = protocol.NewHMACAuth(key)
	case protocol.AuthAESCBCMAC:
		auth, err = protocol.NewAESAuth(key[:16])
	case protocol.AuthSpeckCBCMAC:
		auth, err = protocol.NewSpeckAuth(key[:16])
	default:
		err = errUnknownAuth
	}
	if err != nil {
		return nil, err
	}
	a.cachedAuth = auth
	a.cachedAuthKey = k
	return auth, nil
}

var errUnknownAuth = &mcu.Fault{Reason: "unknown auth kind"}

// checkFreshness applies the configured §4.2 mechanism against the
// protected prover state and, on acceptance, advances that state. It is
// shared by attestation requests and service commands: the prover keeps a
// single freshness stream, so commands cannot be replayed "around" the
// attestation counter.
func (a *Anchor) checkFreshness(e *mcu.Exec, nonce, counter, timestamp uint64) bool {
	switch a.cfg.Freshness {
	case protocol.FreshNone:
		return true

	case protocol.FreshCounter:
		raw, fault := e.Read(CounterAddr, CounterSize)
		if fault != nil {
			a.Stats.Faults++
			return false
		}
		e.Tick(8)
		last := binary.LittleEndian.Uint64(raw)
		if !protocol.CounterFresh(last, counter) {
			return false
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], counter)
		if fault := e.Write(CounterAddr, buf[:]); fault != nil {
			a.Stats.Faults++
			return false
		}
		return true

	case protocol.FreshTimestamp:
		now, fault := a.readClockMs(e)
		if fault != nil {
			a.Stats.Faults++
			return false
		}
		e.Tick(16)
		return protocol.TimestampFresh(now, timestamp, a.cfg.TimestampWindowMs, a.cfg.TimestampSkewMs)

	case protocol.FreshNonceHistory:
		return a.checkNonce(e, nonce)
	}
	return false
}

// checkNonce scans the flash-resident nonce history and appends fresh
// nonces, evicting the oldest entry when the capacity bound is hit — the
// paper's non-volatile-memory cost made concrete. Layout: a count word,
// then capacity 8-byte entries used as a ring (oldest first).
func (a *Anchor) checkNonce(e *mcu.Exec, nonce uint64) bool {
	countWord, fault := e.Load32(NonceAreaAddr)
	if fault != nil {
		a.Stats.Faults++
		return false
	}
	count := int(countWord)
	if count > a.cfg.NonceCapacity {
		count = a.cfg.NonceCapacity
	}
	entries := NonceAreaAddr + 4
	// Linear scan, ~6 cycles per remembered nonce.
	e.Tick(cost.Cycles(6 * count))
	for i := 0; i < count; i++ {
		raw, fault := e.Read(entries+mcu.Addr(i*8), 8)
		if fault != nil {
			a.Stats.Faults++
			return false
		}
		if binary.LittleEndian.Uint64(raw) == nonce {
			return false // replay
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], nonce)
	if count < a.cfg.NonceCapacity {
		if fault := e.Write(entries+mcu.Addr(count*8), buf[:]); fault != nil {
			a.Stats.Faults++
			return false
		}
		if fault := e.Store32(NonceAreaAddr, uint32(count+1)); fault != nil {
			a.Stats.Faults++
			return false
		}
		return true
	}
	// Full: shift the ring down one slot (evict oldest). Modeled as a
	// block move; real firmware would keep a head index, but the effect —
	// the oldest nonce becomes replayable — is identical.
	e.Tick(cost.Cycles(2 * count))
	block, fault := e.Read(entries+8, uint32((count-1)*8))
	if fault != nil {
		a.Stats.Faults++
		return false
	}
	if fault := e.Write(entries, block); fault != nil {
		a.Stats.Faults++
		return false
	}
	if fault := e.Write(entries+mcu.Addr((count-1)*8), buf[:]); fault != nil {
		a.Stats.Faults++
		return false
	}
	return true
}
