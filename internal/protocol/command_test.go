package protocol

import (
	"bytes"
	"crypto/hmac"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestCommandReqRoundTrip(t *testing.T) {
	req := &CommandReq{
		Kind:      CmdSecureUpdate,
		Freshness: FreshCounter,
		Auth:      AuthHMACSHA1,
		Nonce:     7,
		Counter:   8,
		Timestamp: 9,
		Body:      []byte("firmware fragment"),
		Tag:       bytes.Repeat([]byte{0xCD}, 20),
	}
	back, err := DecodeCommandReq(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != req.Kind || back.Freshness != req.Freshness || back.Auth != req.Auth ||
		back.Nonce != req.Nonce || back.Counter != req.Counter || back.Timestamp != req.Timestamp ||
		!bytes.Equal(back.Body, req.Body) || !bytes.Equal(back.Tag, req.Tag) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, req)
	}
}

func TestCommandReqRoundTripQuick(t *testing.T) {
	f := func(kind uint8, nonce uint64, body []byte) bool {
		if len(body) > maxCommandBody {
			body = body[:maxCommandBody]
		}
		req := &CommandReq{Kind: CommandKind(kind), Nonce: nonce, Body: body}
		back, err := DecodeCommandReq(req.Encode())
		if err != nil {
			return false
		}
		return back.Nonce == nonce && bytes.Equal(back.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCommandReqRejectsMalformed(t *testing.T) {
	good := (&CommandReq{Body: []byte("b"), Tag: []byte{1, 2}}).Encode()
	cases := map[string][]byte{
		"short":       good[:10],
		"bad magic":   mutate(good, 1, 0xFF),
		"bad version": mutate(good, 2, 9),
		"truncated":   good[:len(good)-1],
		"oversized":   append(append([]byte(nil), good...), 0),
	}
	for name, buf := range cases {
		if _, err := DecodeCommandReq(buf); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	// Body length pointing past the maximum.
	huge := (&CommandReq{}).Encode()
	huge[32] = 0xFF
	huge[33] = 0xFF
	huge[34] = 0xFF
	huge[35] = 0x7F
	if _, err := DecodeCommandReq(huge); err == nil {
		t.Error("huge body length: decode succeeded")
	}
}

func TestCommandSignedBytesCoverKindAndBody(t *testing.T) {
	a := &CommandReq{Kind: CmdSecureErase, Nonce: 1, Body: []byte("x")}
	b := &CommandReq{Kind: CmdSecureUpdate, Nonce: 1, Body: []byte("x")}
	if bytes.Equal(a.SignedBytes(), b.SignedBytes()) {
		t.Fatal("SignedBytes does not cover the command kind — command splicing possible")
	}
	c := &CommandReq{Kind: CmdSecureErase, Nonce: 1, Body: []byte("y")}
	if bytes.Equal(a.SignedBytes(), c.SignedBytes()) {
		t.Fatal("SignedBytes does not cover the body — payload swapping possible")
	}
	d := &CommandReq{Kind: CmdSecureErase, Nonce: 1, Body: []byte("x"), Tag: []byte{9}}
	if !bytes.Equal(a.SignedBytes(), d.SignedBytes()) {
		t.Fatal("SignedBytes depends on the tag")
	}
}

// verifyTag checks r's tag under key, as the verifier does with its held
// MAC.
func verifyTag(r *CommandResp, key []byte) bool {
	return hmac.Equal(NewMAC(key).commandTag(r)[:], r.Tag)
}

func TestCommandRespSealVerify(t *testing.T) {
	key := []byte("k-attest-20-bytes!!!")
	resp := &CommandResp{Kind: CmdClockSync, Status: StatusOK, Nonce: 4, Body: []byte("delta")}
	resp.Seal(key)
	back, err := DecodeCommandResp(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !verifyTag(back, key) {
		t.Fatal("sealed response failed verification")
	}
	if verifyTag(back, []byte("wrong-key-20-bytes!!")) {
		t.Fatal("response verified under wrong key")
	}
	// Tampering with status must break the tag — otherwise malware could
	// flip a Refused into an OK.
	back.Status = StatusRefused
	if verifyTag(back, key) {
		t.Fatal("status tampering undetected")
	}
}

func TestDecodeCommandRespRejectsMalformed(t *testing.T) {
	resp := &CommandResp{Kind: CmdSecureErase, Nonce: 1}
	resp.Seal([]byte("k"))
	good := resp.Encode()
	if _, err := DecodeCommandResp(good[:5]); err == nil {
		t.Error("short response decoded")
	}
	if _, err := DecodeCommandResp(mutate(good, 0, 0)); err == nil {
		t.Error("bad-magic response decoded")
	}
	if _, err := DecodeCommandResp(append(good, 1)); err == nil {
		t.Error("oversized response decoded")
	}
}

func TestClassifyFrame(t *testing.T) {
	att := (&AttReq{}).Encode()
	attResp := (&AttResp{}).Encode()
	cmd := (&CommandReq{}).Encode()
	cmdResp := (&CommandResp{}).Encode()
	cases := []struct {
		buf  []byte
		want FrameKind
	}{
		{att, FrameAttReq},
		{attResp, FrameAttResp},
		{cmd, FrameCommandReq},
		{cmdResp, FrameCommandResp},
		{[]byte("xx"), FrameUnknown},
		{nil, FrameUnknown},
		{[]byte{0x41, 0x52, 0x99}, FrameUnknown}, // wrong version
	}
	for i, tc := range cases {
		if got := ClassifyFrame(tc.buf); got != tc.want {
			t.Errorf("case %d: ClassifyFrame = %v, want %v", i, got, tc.want)
		}
	}
}

// TestClassifyFrameExhaustive classifies every first-three-byte triple,
// and every frame shorter than three bytes, against the magics PROTOCOL.md
// documents: each frame section's heading names its magic, and the
// cluster control frames' table lists magics the attestation gate must
// see as unknown. The daemon's gate, the agent and the simulator's
// scenarios all route frames by ClassifyFrame.
func TestClassifyFrameExhaustive(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]FrameKind{
		"Attestation request":  FrameAttReq,
		"Attestation response": FrameAttResp,
		"Service command":      FrameCommandReq,
		"Service response":     FrameCommandResp,
		"Session hello":        FrameHello,
		"Gate-stats report":    FrameStats,
		"Swarm request":        FrameSwarmReq,
		"Swarm response":       FrameSwarmResp,
	}
	heading := regexp.MustCompile("^#+ (.+?)(?: \\(`\\w+`\\))? — magic `0x([0-9A-F]{2}) 0x([0-9A-F]{2})`")
	tableMagic := regexp.MustCompile("`0x([0-9A-F]{2}) 0x([0-9A-F]{2})`")
	hexByte := func(s string) byte {
		b, err := strconv.ParseUint(s, 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		return byte(b)
	}
	var want [256][256]FrameKind
	found := make(map[FrameKind]bool)
	unknown := 0
	for _, line := range strings.Split(string(doc), "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			kind, ok := sections[m[1]]
			if !ok {
				t.Fatalf("PROTOCOL.md documents the magic of %q, which this test does not map to a frame kind", m[1])
			}
			if found[kind] {
				t.Fatalf("PROTOCOL.md documents frame kind %v twice", kind)
			}
			found[kind] = true
			want[hexByte(m[2])][hexByte(m[3])] = kind
			continue
		}
		if strings.HasPrefix(line, "|") {
			for _, m := range tableMagic.FindAllStringSubmatch(line, -1) {
				if want[hexByte(m[1])][hexByte(m[2])] != FrameUnknown {
					t.Fatalf("the cluster magic %s %s is also a frame section's", m[1], m[2])
				}
				unknown++
			}
		}
	}
	if len(found) != len(sections) || unknown == 0 {
		t.Fatalf("PROTOCOL.md documents %d of %d frame magics and %d cluster magics", len(found), len(sections), unknown)
	}

	for n := 0; n < 3; n++ {
		buf := make([]byte, n)
		for v := 0; v < 1<<(8*n); v++ {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			if got := ClassifyFrame(buf); got != FrameUnknown {
				t.Fatalf("ClassifyFrame(%x) = %v, want FrameUnknown", buf, got)
			}
		}
	}
	buf := make([]byte, 3)
	for b0 := 0; b0 < 256; b0++ {
		for b1 := 0; b1 < 256; b1++ {
			kind := want[b0][b1]
			buf[0], buf[1] = byte(b0), byte(b1)
			for b2 := 0; b2 < 256; b2++ {
				buf[2] = byte(b2)
				wantKind := FrameUnknown
				if b2 == reqVersion {
					wantKind = kind
				}
				if got := ClassifyFrame(buf); got != wantKind {
					t.Fatalf("ClassifyFrame(%x) = %v, want %v", buf, got, wantKind)
				}
			}
		}
	}
}

func TestCommandKindStrings(t *testing.T) {
	for _, k := range []CommandKind{CmdSecureUpdate, CmdSecureErase, CmdClockSync, CommandKind(99)} {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
}

func TestVerifierCommandFlow(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	req, err := v.NewCommand(CmdSecureErase, []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Counter == 0 {
		t.Fatal("command did not draw from the counter stream")
	}
	// Commands and attestation requests share the counter stream.
	att, _ := v.NewRequest()
	if att.Counter != req.Counter+1 {
		t.Fatalf("attestation counter %d after command counter %d, want +1", att.Counter, req.Counter)
	}

	resp := &CommandResp{Kind: CmdSecureErase, Status: StatusOK, Nonce: req.Nonce}
	resp.Seal([]byte("k-attest-20-bytes!!!"))
	got, err := v.CheckCommandResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusOK {
		t.Fatalf("status = %d", got.Status)
	}
	// Replay of the response: unsolicited.
	if _, err := v.CheckCommandResponse(resp.Encode()); err == nil {
		t.Fatal("replayed command response accepted")
	}
}

func TestVerifierCommandResponseValidation(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	req, _ := v.NewCommand(CmdSecureErase, nil)

	// Wrong kind.
	wrongKind := &CommandResp{Kind: CmdClockSync, Nonce: req.Nonce}
	wrongKind.Seal([]byte("k-attest-20-bytes!!!"))
	if _, err := v.CheckCommandResponse(wrongKind.Encode()); err == nil {
		t.Fatal("kind-swapped response accepted")
	}

	// Bad tag.
	badTag := &CommandResp{Kind: CmdSecureErase, Nonce: req.Nonce}
	badTag.Seal([]byte("wrong-key-wrong-key!"))
	if _, err := v.CheckCommandResponse(badTag.Encode()); err == nil {
		t.Fatal("wrong-key response accepted")
	}

	// Unknown nonce.
	stray := &CommandResp{Kind: CmdSecureErase, Nonce: 999}
	stray.Seal([]byte("k-attest-20-bytes!!!"))
	if _, err := v.CheckCommandResponse(stray.Encode()); err == nil {
		t.Fatal("unsolicited command response accepted")
	}

	// Garbage.
	if _, err := v.CheckCommandResponse([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
}
