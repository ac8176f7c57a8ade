package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"proverattest/internal/obs"
)

// TestConnMetricsAccounting drives one frame each way over a pipe and a
// family of failure shapes, checking each lands on its distinct series.
func TestConnMetricsAccounting(t *testing.T) {
	reg := obs.New()
	m := NewMetrics(reg)
	a, b := Pipe(Options{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second, Metrics: m})

	payload := []byte("four-byte-prefix-plus-me")
	sent := make(chan error, 1)
	go func() { sent <- a.Send(payload) }()
	got, err := b.RecvShared()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	wire := uint64(prefixSize + len(payload))
	if m.FramesOut.Load() != 1 || m.FramesIn.Load() != 1 {
		t.Fatalf("frames out=%d in=%d, want 1/1", m.FramesOut.Load(), m.FramesIn.Load())
	}
	if m.BytesOut.Load() != wire || m.BytesIn.Load() != wire {
		t.Fatalf("bytes out=%d in=%d, want %d", m.BytesOut.Load(), m.BytesIn.Load(), wire)
	}
	_ = got

	// Oversized send fails before touching the wire.
	big := bytes.Repeat([]byte{1}, int(DefaultMaxFrame)+1)
	if err := a.Send(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send: %v", err)
	}
	if m.WriteErrors.Load() != 1 {
		t.Fatalf("WriteErrors = %d, want 1", m.WriteErrors.Load())
	}

	// Close both ends: a clean EOF counts on no error series.
	a.Close()
	b.Close()
	if _, err := b.RecvShared(); err == nil {
		t.Fatal("recv on closed conn succeeded")
	}
}

// TestRecvCountsPublishWhenBufferRunsDry: frames received while another
// whole frame is buffered are counted on the Conn and reach the shared
// series, exactly, once the buffer runs dry — before the next receive can
// wait. Close publishes what a caller left unreceived behind.
func TestRecvCountsPublishWhenBufferRunsDry(t *testing.T) {
	m := NewMetrics(obs.New())
	var wire []byte
	payloads := []string{"one", "two", "three"}
	for _, p := range payloads {
		wire = AppendFrame(wire, []byte(p))
	}
	c := NewConn(streamConn{bytes.NewReader(append(wire, wire...))}, Options{Metrics: m})
	var sum uint64
	for i := range payloads {
		frame, more, err := c.RecvSharedBuffered()
		if err != nil {
			t.Fatal(err)
		}
		sum += uint64(prefixSize + len(frame))
		// One read took in the whole stream: the buffer runs dry only
		// after the sixth frame.
		if !more || m.FramesIn.Load() != 0 {
			t.Fatalf("frame %d: more=%v, %d frames published before the buffer ran dry", i, more, m.FramesIn.Load())
		}
	}
	for i := range payloads {
		frame, more, err := c.RecvSharedBuffered()
		if err != nil {
			t.Fatal(err)
		}
		sum += uint64(prefixSize + len(frame))
		if more != (i < 2) {
			t.Fatalf("frame %d: more=%v", i+3, more)
		}
	}
	if m.FramesIn.Load() != 6 || m.BytesIn.Load() != sum {
		t.Fatalf("dry buffer published frames=%d bytes=%d, want 6/%d", m.FramesIn.Load(), m.BytesIn.Load(), sum)
	}

	m = NewMetrics(obs.New())
	c = NewConn(streamConn{bytes.NewReader(wire)}, Options{Metrics: m})
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if m.FramesIn.Load() != 0 {
		t.Fatal("published with two whole frames still buffered")
	}
	c.Close()
	if m.FramesIn.Load() != 1 || m.BytesIn.Load() != uint64(prefixSize+len(payloads[0])) {
		t.Fatalf("Close published frames=%d bytes=%d, want the one frame received", m.FramesIn.Load(), m.BytesIn.Load())
	}
}

func TestConnMetricsReadCauses(t *testing.T) {
	cases := []struct {
		name   string
		stream []byte
		opt    Options
		count  func(m *Metrics) uint64
	}{
		{
			name:   "too large",
			stream: []byte{0xFF, 0xFF, 0xFF, 0x7F},
			count:  func(m *Metrics) uint64 { return m.ReadTooLarge.Load() },
		},
		{
			name:   "truncated prefix",
			stream: []byte{0x10, 0x00},
			count:  func(m *Metrics) uint64 { return m.ReadTruncated.Load() },
		},
		{
			name:   "truncated payload",
			stream: []byte{0x10, 0x00, 0x00, 0x00, 0xAA},
			count:  func(m *Metrics) uint64 { return m.ReadTruncated.Load() },
		},
		{
			name:   "empty frame",
			stream: []byte{0x00, 0x00, 0x00, 0x00},
			count:  func(m *Metrics) uint64 { return m.ReadEmpty.Load() },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics(obs.New())
			opt := tc.opt
			opt.Metrics = m
			c := NewConn(streamConn{bytes.NewReader(tc.stream)}, opt)
			if _, err := c.Recv(); err == nil {
				t.Fatal("malformed stream read succeeded")
			}
			if got := tc.count(m); got != 1 {
				t.Fatalf("cause counter = %d, want 1", got)
			}
			if m.FramesIn.Load() != 0 {
				t.Fatalf("FramesIn = %d, want 0", m.FramesIn.Load())
			}
		})
	}
}

// streamConn adapts a reader into a net.Conn for decode-failure tests.
type streamConn struct{ r io.Reader }

func (s streamConn) Read(p []byte) (int, error)     { return s.r.Read(p) }
func (streamConn) Write(p []byte) (int, error)      { return len(p), nil }
func (streamConn) Close() error                     { return nil }
func (streamConn) LocalAddr() net.Addr              { return nil }
func (streamConn) RemoteAddr() net.Addr             { return nil }
func (streamConn) SetDeadline(time.Time) error      { return nil }
func (streamConn) SetReadDeadline(time.Time) error  { return nil }
func (streamConn) SetWriteDeadline(time.Time) error { return nil }

// TestSendRecvMetricsZeroAllocs extends the codec's zero-allocation pins
// to the instrumented configuration: recording byte/frame counters on the
// steady-state paths must not add a single allocation.
func TestSendRecvMetricsZeroAllocs(t *testing.T) {
	m := NewMetrics(obs.New())
	c := NewConn(sinkConn{}, Options{Metrics: m})
	payload := bytes.Repeat([]byte{0xAB}, 64)
	assertZeroAllocs(t, "Conn.Send with metrics", func() {
		if err := c.Send(payload); err != nil {
			t.Fatal(err)
		}
	})

	stream := AppendFrame(nil, payload)
	r := bytes.NewReader(stream)
	rc := NewConn(streamConn{r}, Options{Metrics: m})
	assertZeroAllocs(t, "Conn.RecvShared with metrics", func() {
		r.Reset(stream)
		if _, err := rc.RecvShared(); err != nil {
			t.Fatal(err)
		}
	})
	if m.FramesOut.Load() == 0 || m.FramesIn.Load() == 0 {
		t.Fatal("metrics did not record during the alloc runs")
	}
}
