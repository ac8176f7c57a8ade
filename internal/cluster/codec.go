package cluster

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"

	"proverattest/internal/protocol"
)

// Cluster frames ride the same length-prefixed transport as attestation
// frames but under their own magic bytes, all unused by
// internal/protocol, so protocol.ClassifyFrame sees every one of them as
// FrameUnknown and the attestation gate never confuses control traffic
// with evidence. Layout mirrors the protocol package: magic 0x41 'A',
// a kind byte, a version byte, then little-endian fields.
//
//	redirect    0x41 0x4C 'L'  — daemon → agent: dial your owner instead
//	peer hello  0x41 0x4B 'K'  — daemon → daemon: first frame of a peer link
//	state req   0x41 0x51 'Q'  — new owner asks: hand over this device
//	state resp  0x41 0x54 'T'  — reply, with the state if it was held
//	state push  0x41 0x55 'U'  — owner → successor freshness replication
//	ping/pong   0x41 0x49 'I' / 0x41 0x4F 'O'
//
// Trust model: cluster frames are session-layer control, exactly like the
// hello — unauthenticated. A forged redirect can bounce an agent to
// another daemon (which will re-route it correctly or refuse it); a
// forged state frame is only accepted on a connection that opened with a
// peer hello on a daemon configured with peers. Neither can forge
// evidence or move a device's freshness backwards: state imports only
// ever jump streams forward (see Snapshot.JumpForReplica) and the
// attestation gate still authenticates every response against K_Attest.
const (
	magicA = 0x41

	kindRedirect  = 0x4C
	kindPeerHello = 0x4B
	kindStateReq  = 0x51
	kindStateResp = 0x54
	kindStatePush = 0x55
	kindPing      = 0x49
	kindPong      = 0x4F

	codecVersion = 1
)

// PeerKind classifies a frame arriving on a peer link.
type PeerKind int

const (
	PeerUnknown PeerKind = iota
	PeerHello
	PeerStateReq
	PeerStateResp
	PeerStatePush
	PeerPing
	PeerPong
)

// ClassifyPeer returns the peer-frame kind, PeerUnknown for anything that
// is not a well-versioned cluster frame.
func ClassifyPeer(frame []byte) PeerKind {
	if len(frame) < 3 || frame[0] != magicA || frame[2] != codecVersion {
		return PeerUnknown
	}
	switch frame[1] {
	case kindPeerHello:
		return PeerHello
	case kindStateReq:
		return PeerStateReq
	case kindStateResp:
		return PeerStateResp
	case kindStatePush:
		return PeerStatePush
	case kindPing:
		return PeerPing
	case kindPong:
		return PeerPong
	}
	return PeerUnknown
}

// IsPeerHello reports whether frame opens a peer link. The server checks
// this on a connection's first frame before trying protocol.DecodeHello.
func IsPeerHello(frame []byte) bool {
	return len(frame) >= 3 && frame[0] == magicA && frame[1] == kindPeerHello && frame[2] == codecVersion
}

var (
	errShort   = errors.New("cluster: frame truncated")
	errMagic   = errors.New("cluster: bad magic")
	errVersion = errors.New("cluster: unsupported version")
	errName    = errors.New("cluster: bad name length")
)

// appendString appends a u16 length prefix and the string bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// readString consumes one length-prefixed string, returning the remainder.
func readString(buf []byte) (string, []byte, error) {
	if len(buf) < 2 {
		return "", nil, errShort
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if n > len(buf) {
		return "", nil, errShort
	}
	return string(buf[:n]), buf[n:], nil
}

func header(kind byte) []byte {
	return []byte{magicA, kind, codecVersion}
}

func checkHeader(frame []byte, kind byte) ([]byte, error) {
	if len(frame) < 3 {
		return nil, errShort
	}
	if frame[0] != magicA || frame[1] != kind {
		return nil, errMagic
	}
	if frame[2] != codecVersion {
		return nil, errVersion
	}
	return frame[3:], nil
}

// EncodeRedirect tells an agent which daemon owns its device: the owner's
// name (for the agent's log line) and the address to dial.
func EncodeRedirect(owner, addr string) []byte {
	out := header(kindRedirect)
	out = appendString(out, owner)
	out = appendString(out, addr)
	return out
}

// DecodeRedirect recognises a redirect frame. The leading ok==false exits
// are pure byte compares so a non-redirect frame costs the agent's read
// loop two comparisons, not an error allocation.
func DecodeRedirect(frame []byte) (owner, addr string, ok bool) {
	if len(frame) < 3 || frame[0] != magicA || frame[1] != kindRedirect || frame[2] != codecVersion {
		return "", "", false
	}
	var err error
	rest := frame[3:]
	if owner, rest, err = readString(rest); err != nil {
		return "", "", false
	}
	if addr, _, err = readString(rest); err != nil {
		return "", "", false
	}
	return owner, addr, true
}

// EncodePeerHello opens a peer link, naming the dialling daemon.
func EncodePeerHello(name string) []byte {
	return appendString(header(kindPeerHello), name)
}

// DecodePeerHello returns the dialling daemon's name.
func DecodePeerHello(frame []byte) (string, error) {
	rest, err := checkHeader(frame, kindPeerHello)
	if err != nil {
		return "", err
	}
	name, _, err := readString(rest)
	if err != nil {
		return "", err
	}
	if name == "" {
		return "", errName
	}
	return name, nil
}

// EncodeStateReq asks the receiving daemon to hand over deviceID's
// verifier state (move semantics: a positive reply removes the device
// there).
func EncodeStateReq(deviceID string) []byte {
	return appendString(header(kindStateReq), deviceID)
}

// DecodeStateReq returns the requested device ID.
func DecodeStateReq(frame []byte) (string, error) {
	rest, err := checkHeader(frame, kindStateReq)
	if err != nil {
		return "", err
	}
	id, _, err := readString(rest)
	return id, err
}

// EncodePing and EncodePong are the peer-link liveness probe.
func EncodePing() []byte { return header(kindPing) }

// EncodePong answers a ping.
func EncodePong() []byte { return header(kindPong) }

// Snapshot is one device's transferable verifier-side state: the
// freshness/fast record (protocol.VerifierState) plus the stats
// aggregation state — the high-water base of completed counter epochs,
// the latest report, and the epoch count — so fleet aggregates stay
// monotonic when the device's accounting moves between daemons.
type Snapshot struct {
	State protocol.VerifierState

	StatsBase   protocol.StatsReport
	LastStats   protocol.StatsReport
	HaveLast    bool // LastStats holds a real report (not the zero value)
	StatsEpochs uint64
}

// FreshnessSlack is the forward jump JumpForReplica applies to the
// counter and nonce streams. A replica lags the owner by however many
// requests were issued after the last push; 2^16 is far beyond any
// plausible lag (pushes are enqueued on every issue) while consuming a
// negligible slice of the uint64 stream space.
const FreshnessSlack = 1 << 16

// JumpForReplica converts a replicated snapshot into one safe to import
// after the owner died without a live handoff. Both freshness streams are
// strictly monotone, so the unknown true position is bounded by
// replica + lag; jumping FreshnessSlack past the replica guarantees the
// new owner never re-issues a counter or nonce the device has seen. The
// fast-path record is dropped: it may be stale (the device's monitor
// epoch can have advanced past the replica), and a stale record must
// never re-arm — the device's next round is one full MAC that re-arms
// the fast path legitimately, the same cost as a daemon restart.
func (s Snapshot) JumpForReplica() Snapshot { return s.jumpForward() }

// JumpForRestart converts a journal-recovered snapshot into one safe to
// adopt after a crash with an under-synced journal (fsync interval/none,
// no clean-shutdown sentinel): the mirror of JumpForReplica for the
// persistence path. The journal lags the true stream position by at most
// the un-flushed tail, which FreshnessSlack dwarfs, so jumping both
// streams forward guarantees the restarted daemon never re-issues a
// counter or nonce the device has seen; the fast-path record is dropped
// for the same staleness reason and re-arms on the device's next full
// MAC. A cleanly-flushed (or per-record-fsynced) journal skips this jump
// and adopts live-exact.
func (s Snapshot) JumpForRestart() Snapshot { return s.jumpForward() }

func (s Snapshot) jumpForward() Snapshot {
	s.State.Counter += FreshnessSlack
	s.State.NonceSeq += FreshnessSlack
	s.State.HaveFast = false
	s.State.FastEpoch = 0
	s.State.FastDigest = [sha1.Size]byte{}
	return s
}

// Snapshot body flags.
const (
	flagHaveFast = 1 << 0
	flagHaveLast = 1 << 1
)

func appendSnapshot(dst []byte, snap *Snapshot) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, snap.State.Counter)
	dst = binary.LittleEndian.AppendUint64(dst, snap.State.NonceSeq)
	dst = binary.LittleEndian.AppendUint32(dst, snap.State.FastEpoch)
	var flags byte
	if snap.State.HaveFast {
		flags |= flagHaveFast
	}
	if snap.HaveLast {
		flags |= flagHaveLast
	}
	dst = append(dst, flags)
	dst = append(dst, snap.State.FastDigest[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, snap.StatsEpochs)
	// The two stats blocks reuse the protocol package's own stats-frame
	// codec (96 bytes each), strict decode included.
	dst = snap.StatsBase.AppendEncode(dst)
	dst = snap.LastStats.AppendEncode(dst)
	return dst
}

const statsFrameLen = 96 // protocol stats frame: 8-byte header + 11 u64 fields

func readSnapshot(buf []byte) (Snapshot, error) {
	var snap Snapshot
	const fixed = 8 + 8 + 4 + 1 + sha1.Size + 8
	if len(buf) != fixed+2*statsFrameLen {
		return snap, errShort
	}
	snap.State.Counter = binary.LittleEndian.Uint64(buf)
	snap.State.NonceSeq = binary.LittleEndian.Uint64(buf[8:])
	snap.State.FastEpoch = binary.LittleEndian.Uint32(buf[16:])
	flags := buf[20]
	snap.State.HaveFast = flags&flagHaveFast != 0
	snap.HaveLast = flags&flagHaveLast != 0
	copy(snap.State.FastDigest[:], buf[21:21+sha1.Size])
	snap.StatsEpochs = binary.LittleEndian.Uint64(buf[21+sha1.Size:])
	buf = buf[fixed:]
	if err := protocol.DecodeStatsReportInto(buf[:statsFrameLen], &snap.StatsBase); err != nil {
		return snap, err
	}
	if err := protocol.DecodeStatsReportInto(buf[statsFrameLen:], &snap.LastStats); err != nil {
		return snap, err
	}
	return snap, nil
}

// EncodeStateResp answers a state request. snap == nil means the device
// was not held here.
func EncodeStateResp(deviceID string, snap *Snapshot) []byte {
	out := header(kindStateResp)
	if snap == nil {
		out = append(out, 0)
		return appendString(out, deviceID)
	}
	out = append(out, 1)
	out = appendString(out, deviceID)
	return appendSnapshot(out, snap)
}

// DecodeStateResp returns the device ID and, when the peer held it, the
// snapshot (nil otherwise).
func DecodeStateResp(frame []byte) (string, *Snapshot, error) {
	rest, err := checkHeader(frame, kindStateResp)
	if err != nil {
		return "", nil, err
	}
	if len(rest) < 1 {
		return "", nil, errShort
	}
	found := rest[0] == 1
	id, rest, err := readString(rest[1:])
	if err != nil {
		return "", nil, err
	}
	if !found {
		return id, nil, nil
	}
	snap, err := readSnapshot(rest)
	if err != nil {
		return "", nil, err
	}
	return id, &snap, nil
}

// EncodeStatePush replicates a device's snapshot to its ring successor.
func EncodeStatePush(deviceID string, snap *Snapshot) []byte {
	return AppendStatePush(nil, deviceID, snap)
}

// AppendStatePush is the append-style EncodeStatePush: it appends the
// state-push frame to dst and returns the extended slice. The journal
// backend reuses this exact framing for its records, so a journal record
// body and a peer-link push are byte-identical and one decoder serves
// both.
func AppendStatePush(dst []byte, deviceID string, snap *Snapshot) []byte {
	dst = append(dst, magicA, kindStatePush, codecVersion)
	dst = appendString(dst, deviceID)
	return appendSnapshot(dst, snap)
}

// DecodeStatePush returns the pushed device ID and snapshot.
func DecodeStatePush(frame []byte) (string, Snapshot, error) {
	rest, err := checkHeader(frame, kindStatePush)
	if err != nil {
		return "", Snapshot{}, err
	}
	id, rest, err := readString(rest)
	if err != nil {
		return "", Snapshot{}, err
	}
	snap, err := readSnapshot(rest)
	return id, snap, err
}
