package adversary

import (
	"bytes"
	"sync"
	"testing"

	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

func TestForgedFramesDecodeUnderThePolicy(t *testing.T) {
	for auth, tagLen := range map[protocol.AuthKind]int{
		protocol.AuthNone:        0,
		protocol.AuthHMACSHA1:    20,
		protocol.AuthAESCBCMAC:   16,
		protocol.AuthSpeckCBCMAC: 8,
		protocol.AuthECDSA:       42,
	} {
		forged := Forged(protocol.FreshNonceHistory, auth, 500)
		for i := 0; i < 3; i++ {
			req, err := protocol.DecodeAttReq(forged(i))
			if err != nil {
				t.Fatalf("%v frame %d: %v", auth, i, err)
			}
			if req.Freshness != protocol.FreshNonceHistory || req.Auth != auth {
				t.Errorf("%v frame %d: policy %v/%v", auth, i, req.Freshness, req.Auth)
			}
			if req.Nonce != 500+uint64(i) || req.Counter != 500+uint64(i) {
				t.Errorf("%v frame %d: nonce %d counter %d, want %d", auth, i, req.Nonce, req.Counter, 500+i)
			}
			if len(req.Tag) != tagLen {
				t.Errorf("%v frame %d: %d-byte tag, want %d", auth, i, len(req.Tag), tagLen)
			}
		}
	}
}

func TestMalformedFramesFailDecode(t *testing.T) {
	for _, i := range []int{0, 1, 255, 256, 65535} {
		f := Malformed(i)
		if _, err := protocol.DecodeAttReq(f); err == nil {
			t.Errorf("malformed frame %d decoded as a request", i)
		}
		if k := protocol.ClassifyFrame(f); k != protocol.FrameUnknown {
			t.Errorf("malformed frame %d classified as %v", i, k)
		}
	}
}

// TestRelayForwardsAndInjects drives the relay between a scripted agent
// and a scripted daemon: the hello and the request pass through, the
// injected frames follow the request in forged/replayed/malformed order,
// and the agent's reply reaches the daemon.
func TestRelayForwardsAndInjects(t *testing.T) {
	const n = 7
	agent, relayDown := transport.Pipe(transport.Options{})
	relayUp, daemon := transport.Pipe(transport.Options{})
	done := make(chan int, 1)
	go func() { done <- Relay(relayDown, relayUp, n) }()

	hello := (&protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "d"}).Encode()
	req := (&protocol.AttReq{
		Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1,
		Nonce: 9, Counter: 9, Tag: bytes.Repeat([]byte{0xAB}, 20),
	}).Encode()
	reply := (&protocol.AttResp{Nonce: 9, Counter: 9}).Encode()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the daemon: take the hello, issue, take the reply
		defer wg.Done()
		if got, err := daemon.Recv(); err != nil || !bytes.Equal(got, hello) {
			t.Errorf("daemon got %x, %v; want the hello", got, err)
			return
		}
		if err := daemon.Send(req); err != nil {
			t.Error(err)
			return
		}
		if got, err := daemon.Recv(); err != nil || !bytes.Equal(got, reply) {
			t.Errorf("daemon got %x, %v; want the reply", got, err)
		}
	}()

	if err := agent.Send(hello); err != nil {
		t.Fatal(err)
	}
	if got, err := agent.Recv(); err != nil || !bytes.Equal(got, req) {
		t.Fatalf("agent got %x, %v; want the request", got, err)
	}
	forged := Forged(protocol.FreshCounter, protocol.AuthHMACSHA1, relayForgedBase)
	for i := 0; i < n; i++ {
		want := [...][]byte{forged(i), req, Malformed(i)}[i%3]
		if got, err := agent.Recv(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("injected frame %d = %x, %v; want %x", i, got, err, want)
		}
	}
	if err := agent.Send(reply); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	agent.Close()
	if got := <-done; got != n {
		t.Fatalf("relay injected %d, want %d", got, n)
	}
	daemon.Close()
}
