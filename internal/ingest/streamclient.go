package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"swarmavail/internal/wal"
)

// StreamClientConfig parameterises a StreamClient. The zero value
// (plus an Addr or Dial) selects sensible defaults.
type StreamClientConfig struct {
	// Addr is the binary ingest listener's TCP address
	// (availd -ingest-bin).
	Addr string
	// Dial, when set, replaces the default net.Dial — tests inject
	// fault-wrapped connections, and the crash harness re-resolves the
	// restarted server's port here.
	Dial func() (net.Conn, error)
	// Source is the idempotency source id carried inside every keyed
	// DATA frame (default: a fresh id from NewSourceID). One Source
	// names one exactly-once sender stream — reuse it across
	// reconnects, never across concurrent clients.
	Source string
	// BatchSize is the ops accumulated per DATA frame (default 512,
	// matching the engine's batch size; at most MaxFrameOps).
	BatchSize int
	// Window is the maximum unacknowledged DATA frames in flight;
	// a full window blocks the producer (default 32).
	Window int
	// MaxAttempts bounds consecutive connection attempts that settle
	// nothing — a failed dial, or a connection that ends before it
	// acknowledges a frame (a fenced or draining server answering ERR) —
	// before a send reports failure (default 8).
	MaxAttempts int
	// RetryBackoff is the wait after such an attempt, doubling up to
	// 32× per consecutive failure (default 50ms).
	RetryBackoff time.Duration
	// Logf, when set, receives one line per reconnect.
	Logf func(format string, args ...any)
}

func (c StreamClientConfig) withDefaults() StreamClientConfig {
	if c.Source == "" {
		c.Source = NewSourceID()
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	c.BatchSize = min(c.BatchSize, MaxFrameOps)
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	return c
}

// StreamClient speaks the binary streaming ingest protocol: it batches
// ops into keyed DATA frames, keeps up to Window frames in flight
// against the server's cumulative acks, and on a broken connection
// redials and resends everything unacknowledged. Because every frame
// carries a (source, seq) idempotency key, the resend is exactly-once
// end to end: frames the server had accepted before the cut are
// acknowledged again from its dedup window without re-applying.
//
// Ops for one batch are encoded exactly once — the encoded envelope is
// what the in-flight window retains, so a retry resends bytes, not
// re-encodes structs.
//
// A StreamClient is a single-producer object like Writer: Put/Observe/
// Flush/Close must come from one goroutine. Acked and WaitAcked are
// safe to call from others (the cluster gateway's ack relay does).
type StreamClient struct {
	cfg StreamClientConfig

	mu   sync.Mutex
	cond *sync.Cond

	conn net.Conn
	gen  uint64 // bumps per established connection; readLoop's identity

	// unacked holds the encoded envelopes of every DATA frame not yet
	// covered by a cumulative ack, oldest first. The frames at indexes
	// below sentOnConn−ackedOnConn are on the wire of the current
	// connection; the rest await (re)send.
	unacked     [][]byte
	sentOnConn  uint64 // DATA frames written on the current connection
	ackedOnConn uint64

	totalSent  uint64 // DATA frames handed to the window, ever
	totalAcked uint64 // DATA frames settled by acks, ever
	reconnects uint64

	pumping  bool  // a sender is mid-pump (writes happen unlocked)
	attempts int   // dials since the last ack; the MaxAttempts budget
	lastErr  error // newest transport error, for dial-exhausted reports
	fatal    error // server verdict that retrying cannot change
	closed   bool

	batch []Op // ops accumulating toward the next DATA frame
	seq   uint64
}

// NewStreamClient returns a client ready to send; the first Put dials.
func NewStreamClient(cfg StreamClientConfig) *StreamClient {
	c := &StreamClient{cfg: cfg.withDefaults()}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Source returns the idempotency source id the client stamps inside
// every keyed frame.
func (c *StreamClient) Source() string { return c.cfg.Source }

// Reconnects returns how many times the client re-established the
// connection after a failure.
func (c *StreamClient) Reconnects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Sent returns the cumulative DATA frames handed to the in-flight
// window.
func (c *StreamClient) Sent() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalSent
}

// Acked returns the cumulative DATA frames the server has settled.
func (c *StreamClient) Acked() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalAcked
}

// Put appends one op, sending a DATA frame when the batch fills. An op
// the codec cannot carry (a non-finite time, size or horizon) is refused
// here, alone, with the batch as it was: found only when the frame is
// encoded, it would fail every later flush of the batch it sits in.
func (c *StreamClient) Put(op Op) error {
	if err := op.check(len(c.batch)); err != nil {
		return err
	}
	c.batch = append(c.batch, op)
	if len(c.batch) >= c.cfg.BatchSize {
		return c.flushBatch()
	}
	return nil
}

// Observe appends one monitor record.
func (c *StreamClient) Observe(rec Record) error { return c.Put(EventOp(rec)) }

// flushBatch encodes the pending ops as one keyed DATA frame and hands
// it to the window. The whole envelope is built in one buffer — header
// space reserved up front, payload appended behind it, sealed by
// FinishFrame — so a frame costs a single allocation.
func (c *StreamClient) flushBatch() error {
	if len(c.batch) == 0 {
		return nil
	}
	c.seq++
	// Sized for the largest event ops; meta/census are rare enough that a
	// regrow on their account is fine.
	hint := wal.FrameHeaderSize + 1 + keyedHeaderSize(c.cfg.Source) + opsHeaderSize + eventWireMax*len(c.batch)
	env := make([]byte, wal.FrameHeaderSize, hint)
	env = append(env, StreamFrameData)
	env, err := encodeKeyedOps(env, c.cfg.Source, c.seq, c.batch)
	if err != nil {
		c.seq--
		return err
	}
	if env, err = wal.FinishFrame(env); err != nil {
		c.seq--
		return err
	}
	c.batch = c.batch[:0]
	return c.sendEnvelope(env)
}

// PushFrame hands one pre-encoded ops-codec frame (plain or keyed —
// the bytes DecodeFrame accepts) to the window verbatim. The cluster
// gateway forwards client frames through this without re-encoding;
// callers mixing PushFrame with Put own the coherence of their key
// space.
func (c *StreamClient) PushFrame(frame []byte) error {
	env := make([]byte, wal.FrameHeaderSize, wal.FrameHeaderSize+1+len(frame))
	env = append(env, StreamFrameData)
	env = append(env, frame...)
	env, err := wal.FinishFrame(env)
	if err != nil {
		return err
	}
	return c.sendEnvelope(env)
}

// sendEnvelope blocks while the window is full, then appends env and
// pumps the connection.
func (c *StreamClient) sendEnvelope(env []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	for len(c.unacked) >= c.cfg.Window {
		if c.fatal != nil {
			return c.fatal
		}
		if c.conn == nil {
			if err := c.pumpLocked(); err != nil {
				return err
			}
			continue
		}
		c.cond.Wait()
	}
	c.unacked = append(c.unacked, env)
	c.totalSent++
	return c.pumpLocked()
}

// Flush sends any buffered ops and blocks until every sent frame is
// acknowledged — the client-side barrier. On return, everything put
// before the call is journaled (durable engine) and applied, or the
// error says why not.
func (c *StreamClient) Flush() error {
	if err := c.flushBatch(); err != nil {
		return err
	}
	c.mu.Lock()
	target := c.totalSent
	c.mu.Unlock()
	return c.WaitAcked(target)
}

// WaitAcked blocks until the server's cumulative acks cover the first
// n DATA frames, redialing and resending as needed. n beyond Sent()
// never settles; callers pass a value they observed from Sent().
func (c *StreamClient) WaitAcked(n uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.totalAcked < n {
		if c.fatal != nil {
			return c.fatal
		}
		if c.closed {
			return ErrClosed
		}
		if c.conn == nil && len(c.unacked) > 0 {
			if err := c.pumpLocked(); err != nil {
				return err
			}
			continue
		}
		c.cond.Wait()
	}
	return nil
}

// Close flushes, settles the window, sends a CLOSE frame, and tears
// the connection down. Idempotent; later sends return ErrClosed.
func (c *StreamClient) Close() error {
	err := c.Flush()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return err
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	if conn != nil {
		// Best effort: the window is already settled, so CLOSE is
		// courtesy, not correctness.
		_, _ = conn.Write(wal.AppendFrame(nil, []byte{StreamFrameClose}))
		conn.Close()
	}
	return err
}

// pumpLocked drives the connection until every unacked frame has been
// written on a live connection: dial (with bounded, backed-off
// retries), resend the unacked window, send anything new. Only one
// caller pumps at a time; others wait — the pumper writes their frames
// too. Called with mu held; unlocks around dials and writes.
func (c *StreamClient) pumpLocked() error {
	for c.pumping {
		c.cond.Wait()
		if c.fatal != nil {
			return c.fatal
		}
	}
	c.pumping = true
	defer func() {
		c.pumping = false
		c.cond.Broadcast()
	}()
	for {
		if c.fatal != nil {
			return c.fatal
		}
		if c.closed {
			return ErrClosed
		}
		if c.conn == nil {
			if c.attempts >= c.cfg.MaxAttempts {
				// The next send starts over with a full budget.
				c.attempts = 0
				return fmt.Errorf("ingest: stream made no progress in %d connection attempts: %w", c.cfg.MaxAttempts, c.lastErr)
			}
			if c.attempts > 0 {
				c.mu.Unlock()
				time.Sleep(c.backoff(c.attempts))
				c.mu.Lock()
			}
			c.attempts++
			c.mu.Unlock()
			conn, err := c.dial()
			c.mu.Lock()
			if err != nil {
				c.lastErr = err
				if c.cfg.Logf != nil {
					c.cfg.Logf("ingest stream: dial %d/%d failed: %v", c.attempts, c.cfg.MaxAttempts, err)
				}
				continue
			}
			c.gen++
			c.conn = conn
			c.sentOnConn, c.ackedOnConn = 0, 0
			if c.gen > 1 {
				c.reconnects++
				if c.cfg.Logf != nil {
					c.cfg.Logf("ingest stream: reconnected (%d unacked frames to resend)", len(c.unacked))
				}
			}
			go c.readLoop(conn, c.gen)
		}
		inflight := int(c.sentOnConn - c.ackedOnConn)
		if inflight >= len(c.unacked) {
			return nil
		}
		// Commit the frames to this connection before writing: the ack
		// reader validates acks against sentOnConn, and the server may
		// answer before the write call even returns.
		toSend := make([][]byte, len(c.unacked)-inflight)
		copy(toSend, c.unacked[inflight:])
		c.sentOnConn += uint64(len(toSend))
		conn, gen := c.conn, c.gen
		c.mu.Unlock()
		var werr error
		for _, env := range toSend {
			if _, werr = conn.Write(env); werr != nil {
				break
			}
		}
		c.mu.Lock()
		if werr != nil && gen == c.gen && conn == c.conn {
			c.dropConnLocked(conn, werr)
		}
		// Loop: recheck under the lock — the connection may have died
		// (our write error or the reader's), leaving frames to resend.
	}
}

func (c *StreamClient) backoff(fails int) time.Duration {
	d := c.cfg.RetryBackoff
	for i := 1; i < fails && d < 32*c.cfg.RetryBackoff; i++ {
		d *= 2
	}
	return d
}

func (c *StreamClient) dial() (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial()
	}
	return net.DialTimeout("tcp", c.cfg.Addr, 10*time.Second)
}

// dropConnLocked retires the current connection after a transport
// error. Unacked frames stay queued; the next pump resends them.
func (c *StreamClient) dropConnLocked(conn net.Conn, err error) {
	c.lastErr = err
	c.conn = nil
	conn.Close()
	c.cond.Broadcast()
}

// readLoop consumes ACK/ERR frames for one connection. gen ties the
// loop to its connection: bookkeeping is applied only while the client
// still considers conn current.
func (c *StreamClient) readLoop(conn net.Conn, gen uint64) {
	fr := wal.NewFrameReader(bufio.NewReaderSize(conn, 4<<10))
	for {
		payload, err := fr.Next()
		if err != nil {
			c.connFailed(conn, gen, err)
			return
		}
		switch payload[0] {
		case StreamFrameAck:
			if len(payload) < 9 {
				c.connFailed(conn, gen, fmt.Errorf("ingest: short ack frame (%d bytes)", len(payload)))
				return
			}
			n := binary.LittleEndian.Uint64(payload[1:9])
			if !c.applyAck(conn, gen, n) {
				return
			}
		case StreamFrameErr:
			serr := &StreamError{Code: StreamErrProto}
			if len(payload) >= 2 {
				serr.Code = payload[1]
				serr.Msg = string(payload[2:])
			}
			c.connFailed(conn, gen, serr)
			return
		default:
			c.connFailed(conn, gen, fmt.Errorf("ingest: unknown stream frame type 0x%02x", payload[0]))
			return
		}
	}
}

// applyAck advances the window to the server's cumulative count.
// Returns false when the loop should exit (stale connection or a
// protocol violation).
func (c *StreamClient) applyAck(conn net.Conn, gen, n uint64) bool {
	c.mu.Lock()
	if gen != c.gen || conn != c.conn {
		c.mu.Unlock()
		return false
	}
	if n < c.ackedOnConn || n > c.sentOnConn {
		c.mu.Unlock()
		c.connFailed(conn, gen, fmt.Errorf("ingest: ack %d outside window [%d,%d]", n, c.ackedOnConn, c.sentOnConn))
		return false
	}
	delta := n - c.ackedOnConn
	if delta > 0 {
		c.attempts = 0
	}
	c.ackedOnConn = n
	c.totalAcked += delta
	c.unacked = c.unacked[delta:]
	if len(c.unacked) == 0 {
		c.unacked = nil // release the settled backing array
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	return true
}

// connFailed retires conn after a read-side failure. A codec verdict
// from the server is fatal — resending the same bytes cannot change
// it — while everything else (resets, engine-closed during a restart,
// torn acks) leaves the unacked window queued for the next pump.
func (c *StreamClient) connFailed(conn net.Conn, gen uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || conn != c.conn {
		return
	}
	if serr, ok := err.(*StreamError); ok && serr.Code == StreamErrCodec {
		c.fatal = serr
	}
	c.dropConnLocked(conn, err)
}
