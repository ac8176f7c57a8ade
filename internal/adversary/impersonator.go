package adversary

import (
	"crypto/aes"
	"crypto/sha1"
	"sync"

	"proverattest/internal/crypto/ecc"
	"proverattest/internal/crypto/speck"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// The verifier impersonator's (§3.1) hostile frame families. Each is a
// func(i int) []byte, the shape of Flood.Frame, so the simulated floods
// and the socket Relay inject the same bytes.

// forgedTagLen is the tag size a key-less impersonator pads a forgery to,
// per scheme: the length the prover expects, so the forgery gets past the
// parser and dies at the tag check itself.
func forgedTagLen(auth protocol.AuthKind) int {
	switch auth {
	case protocol.AuthHMACSHA1:
		return sha1.Size
	case protocol.AuthAESCBCMAC:
		return aes.BlockSize
	case protocol.AuthSpeckCBCMAC:
		return speck.BlockSize
	case protocol.AuthECDSA:
		return ecc.SignatureSize
	}
	return 0
}

// Forged returns the key-less impersonator's request family: frame i is a
// well-framed request under the given policy, with nonce and counter
// base+i and a garbage tag of the scheme's length. Under AuthNone the
// empty tag verifies and every frame buys a full measurement — the
// strawman the paper's gate exists to kill.
func Forged(fresh protocol.FreshnessKind, auth protocol.AuthKind, base uint64) func(i int) []byte {
	n := forgedTagLen(auth)
	return func(i int) []byte {
		req := &protocol.AttReq{
			Freshness: fresh,
			Auth:      auth,
			Nonce:     base + uint64(i),
			Counter:   base + uint64(i),
		}
		if n > 0 {
			req.Tag = make([]byte, n)
			for j := range req.Tag {
				req.Tag[j] = byte(i*31 + j*7)
			}
		}
		return req.Encode()
	}
}

// Malformed is the parser-stage family: frame i carries a protocol
// version no prover speaks, so it is refused before any cryptography
// runs.
func Malformed(i int) []byte { return []byte{0x41, 0x52, 0xFF, byte(i), byte(i >> 8)} }

// relayForgedBase is where the relay's forged counters start: far above
// any counter an honest session reaches, so a forgery can only die at the
// tag check.
const relayForgedBase = 1_000_000_007

// Relay is the verifier impersonator on a live socket: a
// man-in-the-middle between one agent and that agent's daemon. It
// forwards every frame in both directions, reading the deployment's
// freshness and auth policy from the hello it forwards. Once the daemon's
// first request has reached the agent, the relay keeps it as its replay
// source and injects n frames at the agent, cycling forged, replayed and
// malformed. Forgeries die at the agent's tag check, replays at its
// freshness check and malformed frames at its parser; none may cost the
// prover a memory measurement.
//
// Relay returns, with both connections closed, once either side closes
// (or at once when the agent's first frame is not a hello), and reports
// how many frames it injected.
func Relay(agent, daemon *transport.Conn, n int) (injected int) {
	var wg sync.WaitGroup
	defer wg.Wait()
	defer daemon.Close()
	defer agent.Close()
	frame, err := agent.Recv()
	if err != nil {
		return 0
	}
	hello, err := protocol.DecodeHello(frame)
	if err != nil || daemon.Send(frame) != nil {
		return 0
	}
	forged := Forged(hello.Freshness, hello.Auth, relayForgedBase)

	// Agent to daemon: the hello is through, the rest (responses, stats)
	// follows as is. Closing the daemon side on the way out ends the pump
	// below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer daemon.Close()
		for {
			f, err := agent.RecvShared()
			if err != nil || daemon.Send(f) != nil {
				return
			}
		}
	}()

	// Daemon to agent, with the injection behind the first request.
	var replay []byte
	for {
		f, err := daemon.RecvShared()
		if err != nil || agent.Send(f) != nil {
			return injected
		}
		if replay != nil || protocol.ClassifyFrame(f) != protocol.FrameAttReq {
			continue
		}
		replay = append([]byte(nil), f...)
		for ; injected < n; injected++ {
			var hostile []byte
			switch injected % 3 {
			case 0:
				hostile = forged(injected)
			case 1:
				hostile = replay
			default:
				hostile = Malformed(injected)
			}
			if agent.Send(hostile) != nil {
				return injected
			}
		}
	}
}
