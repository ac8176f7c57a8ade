package transport

import (
	"errors"
	"io"

	"proverattest/internal/obs"
)

// Metrics is the frame codec's byte/frame/error accounting, recorded by a
// Conn on every Send/Recv when wired via Options.Metrics. All fields are
// obs instruments (atomics on preallocated state), so recording keeps the
// codec's zero-allocation contract; a nil *Metrics disables recording
// entirely. One Metrics may be shared by many Conns — the daemon wires a
// single set across every accepted connection, so the series aggregate
// fleet-wide traffic. Received frames and bytes arrive once per read
// buffer (see Options.Metrics).
type Metrics struct {
	FramesIn  *obs.Counter // frames successfully read
	FramesOut *obs.Counter // frames successfully written
	BytesIn   *obs.Counter // wire bytes read (prefix + payload)
	BytesOut  *obs.Counter // wire bytes written (prefix + payload)

	ReadTimeouts  *obs.Counter // Recv deadline expiries (idle heartbeat ticks)
	ReadTooLarge  *obs.Counter // length prefix over MaxFrame
	ReadTruncated *obs.Counter // stream died mid-prefix or mid-payload
	ReadEmpty     *obs.Counter // zero-length frame
	ReadErrors    *obs.Counter // other read failures (net errors)
	WriteErrors   *obs.Counter // Send failures of any cause
}

// NewMetrics registers the codec's series on r (names prefixed
// transport_) and returns the recording handle. A nil registry yields a
// Metrics whose instruments are all no-ops, which a caller may still wire
// — or pass nil Metrics to skip even the nil-checks.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		FramesIn:      r.Counter("transport_frames_total", "Frames moved by the codec by direction.", obs.L("dir", "in")),
		FramesOut:     r.Counter("transport_frames_total", "Frames moved by the codec by direction.", obs.L("dir", "out")),
		BytesIn:       r.Counter("transport_bytes_total", "Wire bytes (length prefix + payload) by direction.", obs.L("dir", "in")),
		BytesOut:      r.Counter("transport_bytes_total", "Wire bytes (length prefix + payload) by direction.", obs.L("dir", "out")),
		ReadTimeouts:  r.Counter("transport_read_timeouts_total", "Recv deadline expiries (idle heartbeat ticks, not failures)."),
		ReadTooLarge:  r.Counter("transport_read_errors_total", "Frame read failures by cause.", obs.L("cause", "too_large")),
		ReadTruncated: r.Counter("transport_read_errors_total", "Frame read failures by cause.", obs.L("cause", "truncated")),
		ReadEmpty:     r.Counter("transport_read_errors_total", "Frame read failures by cause.", obs.L("cause", "empty")),
		ReadErrors:    r.Counter("transport_read_errors_total", "Frame read failures by cause.", obs.L("cause", "io")),
		WriteErrors:   r.Counter("transport_write_errors_total", "Frame write failures of any cause."),
	}
}

// recvDone publishes frames received, bytes (prefix + payload) in all.
func (m *Metrics) recvDone(frames, bytes uint64) {
	if m == nil {
		return
	}
	m.FramesIn.Add(frames)
	m.BytesIn.Add(bytes)
}

// recvFailed records the cause of one failed Recv. io.EOF is a clean
// shutdown between frames and counts as nothing.
func (m *Metrics) recvFailed(err error) {
	if m == nil {
		return
	}
	switch {
	case errors.Is(err, io.EOF):
	case IsTimeout(err):
		m.ReadTimeouts.Inc()
	case errors.Is(err, ErrFrameTooLarge):
		m.ReadTooLarge.Inc()
	case errors.Is(err, io.ErrUnexpectedEOF):
		m.ReadTruncated.Inc()
	case errors.Is(err, ErrEmptyFrame):
		m.ReadEmpty.Inc()
	default:
		m.ReadErrors.Inc()
	}
}

// sendDone records the outcome of one Send of n payload bytes.
func (m *Metrics) sendDone(n int, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.WriteErrors.Inc()
		return
	}
	m.FramesOut.Inc()
	m.BytesOut.Add(uint64(prefixSize + n))
}
