package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{0x41},
		[]byte("hello frames"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var stream bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&stream, p, 0); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&stream, 0)
		if err != nil {
			t.Fatalf("ReadFrame[%d]: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&stream, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("ReadFrame on drained stream: %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var stream bytes.Buffer
	// A hostile 1 GiB length prefix must be rejected before allocation.
	stream.Write([]byte{0x00, 0x00, 0x00, 0x40})
	if _, err := ReadFrame(&stream, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: %v, want ErrFrameTooLarge", err)
	}

	if err := WriteFrame(io.Discard, bytes.Repeat([]byte{1}, 32), 16); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsEmptyAndTruncated(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), 0); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("zero-length frame: %v, want ErrEmptyFrame", err)
	}
	if err := WriteFrame(io.Discard, nil, 0); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("zero-length write: %v, want ErrEmptyFrame", err)
	}
	// Truncated prefix.
	if _, err := ReadFrame(bytes.NewReader([]byte{5, 0}), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated prefix: %v, want io.ErrUnexpectedEOF", err)
	}
	// Prefix promises 8 bytes, stream holds 3.
	if _, err := ReadFrame(bytes.NewReader([]byte{8, 0, 0, 0, 1, 2, 3}), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestPipeConnExchange(t *testing.T) {
	a, b := Pipe(Options{})
	defer a.Close()
	defer b.Close()

	done := make(chan error, 1)
	go func() {
		frame, err := b.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- b.Send(append([]byte("echo:"), frame...))
	}()
	if err := a.Send([]byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(reply) != "echo:ping" {
		t.Fatalf("reply = %q", reply)
	}
	if err := <-done; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

func TestRecvTimeoutIsIdleTick(t *testing.T) {
	a, b := Pipe(Options{ReadTimeout: 20 * time.Millisecond})
	defer a.Close()
	defer b.Close()

	_, err := a.Recv()
	if err == nil || !IsTimeout(err) {
		t.Fatalf("Recv on idle pipe: %v, want timeout", err)
	}

	// The connection must remain usable after a timeout.
	go func() { b.Send([]byte("late")) }() //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for {
		frame, err := a.Recv()
		if err == nil {
			if string(frame) != "late" {
				t.Fatalf("frame = %q", frame)
			}
			return
		}
		if !IsTimeout(err) || time.Now().After(deadline) {
			t.Fatalf("Recv after timeout: %v", err)
		}
	}
}

// TestRecvTimeoutMidFrameConsumesNothing pins the stream's framing across
// a read timeout that lands inside a frame: the agent treats timeouts as
// heartbeat ticks, so a frame that straddles a tick must still arrive
// whole. Bytes used to be consumed up to the deadline, and every later
// Recv parsed payload bytes as a length prefix. Both a frame that fits
// the read buffer and one larger than it are covered, split inside the
// prefix and inside the payload.
func TestRecvTimeoutMidFrameConsumesNothing(t *testing.T) {
	for _, size := range []int{100, 3 * readBufSize} {
		for _, split := range []int{2, prefixSize + 50} {
			t.Run(fmt.Sprintf("payload=%d/split=%d", size, split), func(t *testing.T) {
				first := make([]byte, size)
				for i := range first {
					first[i] = byte(i * 7)
				}
				wire := AppendFrame(AppendFrame(nil, first), []byte("next"))

				an, bn := net.Pipe()
				defer an.Close()
				rx := NewConn(bn, Options{ReadTimeout: 20 * time.Millisecond})
				defer rx.Close()
				wrote := make(chan error, 1)
				go func() {
					if _, err := an.Write(wire[:split]); err != nil {
						wrote <- err
						return
					}
					time.Sleep(60 * time.Millisecond)
					_, err := an.Write(wire[split:])
					wrote <- err
				}()

				timeouts := 0
				recv := func() []byte {
					t.Helper()
					for {
						frame, err := rx.Recv()
						if err == nil {
							return frame
						}
						if !IsTimeout(err) || timeouts > 100 {
							t.Fatalf("Recv after %d timeouts: %v", timeouts, err)
						}
						timeouts++
					}
				}
				if got := recv(); !bytes.Equal(got, first) {
					t.Fatalf("straddling frame: got %d bytes, want %d intact", len(got), len(first))
				}
				if timeouts == 0 {
					t.Fatal("no Recv timed out inside the frame; the pause did not straddle a deadline")
				}
				if got := recv(); string(got) != "next" {
					t.Fatalf("frame after the straddling one = %q, want %q", got, "next")
				}
				if err := <-wrote; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// deadlineConn counts the read deadlines armed on a net.Conn.
type deadlineConn struct {
	net.Conn
	armed int
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.armed++
	return c.Conn.SetReadDeadline(t)
}

// TestRecvArmsDeadlineOnlyToWait: the Recv that has to wait for bytes
// arms exactly one read deadline; frames already whole in the read buffer
// are returned without arming one. Each frame reports more while another
// whole frame is buffered behind it.
func TestRecvArmsDeadlineOnlyToWait(t *testing.T) {
	an, bn := net.Pipe()
	defer an.Close()
	dc := &deadlineConn{Conn: bn}
	rx := NewConn(dc, Options{ReadTimeout: 5 * time.Second})
	defer rx.Close()

	var wire []byte
	for _, p := range []string{"one", "two", "three"} {
		wire = AppendFrame(wire, []byte(p))
	}
	go an.Write(wire) //nolint:errcheck
	for i, want := range []string{"one", "two", "three"} {
		frame, more, err := rx.RecvSharedBuffered()
		if err != nil {
			t.Fatal(err)
		}
		if string(frame) != want || more != (i < 2) {
			t.Fatalf("frame %d = %q more=%v, want %q more=%v", i, frame, more, want, i < 2)
		}
		if dc.armed != 1 {
			t.Fatalf("after frame %d: %d read deadlines armed for one read, want 1", i, dc.armed)
		}
	}
}
