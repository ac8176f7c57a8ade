// Package services implements the security services the paper positions
// attestation as a building block for (§1, citing SCUBA): secure code
// update and secure memory erasure, plus the verifier↔prover clock
// synchronisation the paper lists as future work (item 2). Each service
// runs inside the trust anchor behind the same authenticated,
// freshness-checked gate as attestation — the paper's future-work item 3
// ("generalize proposed techniques to other network protocols") made
// concrete.
package services

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"

	"proverattest/internal/anchor"
	"proverattest/internal/crypto/cost"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
)

// UpdateRequest asks the anchor to program an image fragment into the
// application's flash region and confirm its integrity.
type UpdateRequest struct {
	// Offset is the byte offset inside the updatable region.
	Offset uint32
	// Image is the fragment to program.
	Image []byte
	// Digest is the expected SHA-1 of the fragment; the anchor verifies
	// the programmed bytes against it before reporting success.
	Digest [sha1.Size]byte
}

// EncodeUpdate serialises an update request body.
func EncodeUpdate(r UpdateRequest) []byte {
	buf := make([]byte, 4+4+sha1.Size+len(r.Image))
	binary.LittleEndian.PutUint32(buf[0:], r.Offset)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(r.Image)))
	copy(buf[8:], r.Digest[:])
	copy(buf[8+sha1.Size:], r.Image)
	return buf
}

// DecodeUpdate parses an update request body.
func DecodeUpdate(buf []byte) (UpdateRequest, error) {
	var r UpdateRequest
	if len(buf) < 8+sha1.Size {
		return r, fmt.Errorf("services: update body too short (%d bytes)", len(buf))
	}
	r.Offset = binary.LittleEndian.Uint32(buf[0:])
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	copy(r.Digest[:], buf[8:])
	if len(buf) != 8+sha1.Size+n {
		return r, fmt.Errorf("services: update body length %d does not match image length %d", len(buf), n)
	}
	r.Image = append([]byte(nil), buf[8+sha1.Size:]...)
	return r, nil
}

// UpdateResponse reports the post-update digest of the whole updatable
// region, so the verifier can confirm the new firmware state.
type UpdateResponse struct {
	RegionDigest [sha1.Size]byte
}

// DecodeUpdateResponse parses an update response body.
func DecodeUpdateResponse(buf []byte) (UpdateResponse, error) {
	var r UpdateResponse
	if len(buf) != sha1.Size {
		return r, fmt.Errorf("services: update response body is %d bytes, want %d", len(buf), sha1.Size)
	}
	copy(r.RegionDigest[:], buf)
	return r, nil
}

// InstallUpdateService registers the secure code update handler. region is
// the flash area updates may touch (normally the application image).
func InstallUpdateService(a *anchor.Anchor, region mcu.Region) {
	a.RegisterService(protocol.CmdSecureUpdate, func(e *mcu.Exec, body []byte) (uint8, []byte) {
		req, err := DecodeUpdate(body)
		if err != nil {
			return protocol.StatusRefused, nil
		}
		if !region.ContainsRange(region.Start+mcu.Addr(req.Offset), uint32(len(req.Image))) {
			return protocol.StatusRefused, nil
		}
		// Integrity first: hash the fragment before touching flash, so a
		// corrupted frame never half-programs the device.
		e.Tick(cost.SHA1Hash(len(req.Image)))
		if sha1.Sum(req.Image) != req.Digest {
			return protocol.StatusRefused, nil
		}
		e.Tick(cost.FlashWrite(len(req.Image)))
		if fault := e.Write(region.Start+mcu.Addr(req.Offset), req.Image); fault != nil {
			return protocol.StatusError, nil
		}
		// Re-measure the whole region so the verifier learns the new
		// firmware state in the same round trip.
		img, fault := e.Read(region.Start, region.Size)
		if fault != nil {
			return protocol.StatusError, nil
		}
		e.Tick(cost.SHA1Hash(len(img)))
		digest := sha1.Sum(img)
		return protocol.StatusOK, digest[:]
	})
}

// EraseRequest asks the anchor to zeroise a memory range and prove it.
type EraseRequest struct {
	Addr mcu.Addr
	Size uint32
}

// EncodeErase serialises an erase request body.
func EncodeErase(r EraseRequest) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], uint32(r.Addr))
	binary.LittleEndian.PutUint32(buf[4:], r.Size)
	return buf
}

// DecodeErase parses an erase request body.
func DecodeErase(buf []byte) (EraseRequest, error) {
	var r EraseRequest
	if len(buf) != 8 {
		return r, fmt.Errorf("services: erase body is %d bytes, want 8", len(buf))
	}
	r.Addr = mcu.Addr(binary.LittleEndian.Uint32(buf[0:]))
	r.Size = binary.LittleEndian.Uint32(buf[4:])
	return r, nil
}

// InstallEraseService registers the secure memory erasure handler. allowed
// lists the regions the verifier may order erased (e.g. the RAM holding
// session secrets). The response body is the SHA-1 of the erased range —
// over all-zero bytes — computed from the actual memory, constituting the
// proof of erasure.
func InstallEraseService(a *anchor.Anchor, allowed ...mcu.Region) {
	a.RegisterService(protocol.CmdSecureErase, func(e *mcu.Exec, body []byte) (uint8, []byte) {
		req, err := DecodeErase(body)
		if err != nil || req.Size == 0 {
			return protocol.StatusRefused, nil
		}
		permitted := false
		for _, region := range allowed {
			if region.ContainsRange(req.Addr, req.Size) {
				permitted = true
				break
			}
		}
		if !permitted {
			return protocol.StatusRefused, nil
		}
		zeros := make([]byte, req.Size)
		if mcu.FlashRegion.Contains(req.Addr) {
			e.Tick(cost.FlashWrite(int(req.Size)))
		} else {
			e.Tick(cost.Cycles(req.Size / 4)) // RAM fill, one word per cycle
		}
		if fault := e.Write(req.Addr, zeros); fault != nil {
			return protocol.StatusError, nil
		}
		// Proof of erasure: hash the range back out of memory.
		back, fault := e.Read(req.Addr, req.Size)
		if fault != nil {
			return protocol.StatusError, nil
		}
		e.Tick(cost.SHA1Hash(len(back)))
		digest := sha1.Sum(back)
		return protocol.StatusOK, digest[:]
	})
}

// ErasureProof computes the digest an honest erasure of n bytes yields,
// for verifier-side checking.
func ErasureProof(n uint32) [sha1.Size]byte {
	return sha1.Sum(make([]byte, n))
}

// SyncRequest carries the verifier's clock reading for synchronisation.
type SyncRequest struct {
	VerifierTimeMs uint64
}

// EncodeSync serialises a sync request body.
func EncodeSync(r SyncRequest) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, r.VerifierTimeMs)
	return buf
}

// DecodeSync parses a sync request body.
func DecodeSync(buf []byte) (SyncRequest, error) {
	if len(buf) != 8 {
		return SyncRequest{}, fmt.Errorf("services: sync body is %d bytes, want 8", len(buf))
	}
	return SyncRequest{VerifierTimeMs: binary.LittleEndian.Uint64(buf)}, nil
}

// SyncResponse reports the adjustment the anchor applied.
type SyncResponse struct {
	AppliedDeltaMs int64
	ClampedDeltaMs int64 // the raw delta before clamping, for diagnostics
}

// DecodeSyncResponse parses a sync response body.
func DecodeSyncResponse(buf []byte) (SyncResponse, error) {
	if len(buf) != 16 {
		return SyncResponse{}, fmt.Errorf("services: sync response body is %d bytes, want 16", len(buf))
	}
	return SyncResponse{
		AppliedDeltaMs: int64(binary.LittleEndian.Uint64(buf[0:])),
		ClampedDeltaMs: int64(binary.LittleEndian.Uint64(buf[8:])),
	}, nil
}

// InstallClockSyncService registers the clock-synchronisation handler
// (the paper's future-work item 2). The anchor compares the verifier's
// authenticated, freshness-checked clock reading against its own and
// adjusts the protected sync-offset word, clamping each step to
// ±maxStepMs so a single malicious-but-authentic sync cannot rewind the
// clock past the freshness window (which would reopen the §5 delayed-
// replay hole). Clock synchronisation requires counter freshness — using
// timestamps to fix a broken clock is circular.
func InstallClockSyncService(a *anchor.Anchor, maxStepMs int64) {
	a.RegisterService(protocol.CmdClockSync, func(e *mcu.Exec, body []byte) (uint8, []byte) {
		req, err := DecodeSync(body)
		if err != nil {
			return protocol.StatusRefused, nil
		}
		local, fault := a.ReadClock(e)
		if fault != nil {
			return protocol.StatusError, nil
		}
		raw := int64(req.VerifierTimeMs) - int64(local)
		applied := raw
		if applied > maxStepMs {
			applied = maxStepMs
		}
		if applied < -maxStepMs {
			applied = -maxStepMs
		}
		// Adjust the protected offset word (writable only by Code_Attest
		// when Protection.SyncOffset is installed).
		cur, fault := e.Read(anchor.SyncOffsetAddr, 8)
		if fault != nil {
			return protocol.StatusError, nil
		}
		next := int64(binary.LittleEndian.Uint64(cur)) + applied
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(next))
		if fault := e.Write(anchor.SyncOffsetAddr, out[:]); fault != nil {
			return protocol.StatusError, nil
		}
		e.Tick(64)
		resp := make([]byte, 16)
		binary.LittleEndian.PutUint64(resp[0:], uint64(applied))
		binary.LittleEndian.PutUint64(resp[8:], uint64(raw))
		return protocol.StatusOK, resp
	})
}
