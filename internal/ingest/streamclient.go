package ingest

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
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
	// Dial, when set, replaces the default dial of Addr — the cluster
	// gateway re-reads a slot's address here, tests inject fault-wrapped
	// connections, and the crash harness re-resolves the restarted
	// server's port. ctx ends with the retry budget or at Abandon.
	Dial func(ctx context.Context) (net.Conn, error)
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
	// RetryFor bounds how long the client keeps redialing without
	// settling a frame — failed dials, and connections that end before
	// they acknowledge one (a fenced or draining server answering ERR) —
	// before a send reports failure (default 4.75s). It runs from the
	// first dial since the last acknowledgement; the waits between
	// attempts start at 50ms and double up to 1.6s, and no dial outlives
	// what is left of it. It is also how long a connection with frames in
	// flight may go without sending an ACK before it is dropped and the
	// redials begin, so an upstream that stopped without closing costs a
	// send about twice RetryFor at most.
	RetryFor time.Duration
	// Logf, when set, receives one line per reconnect.
	Logf func(format string, args ...any)
}

// retryBase is the first wait between redials; each further one doubles,
// up to 32×. defaultRetryFor is the sum of the first seven waits.
const (
	retryBase       = 50 * time.Millisecond
	defaultRetryFor = 4750 * time.Millisecond
)

// ErrAbandoned is what an abandoned StreamClient answers every blocked
// and later call with: the client was given up on, whatever the state
// of the server behind it.
var ErrAbandoned = errors.New("ingest: stream client abandoned")

// retryWait is the wait after the nth failed attempt: the one retry
// schedule both ingest clients keep.
func retryWait(n int) time.Duration { return retryBase << min(n-1, 5) }

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
	if c.RetryFor <= 0 {
		c.RetryFor = defaultRetryFor
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
// Ops for one batch are encoded exactly once, straight into the envelope
// the in-flight window retains, so a retry resends bytes, not
// re-encodes structs.
//
// Put/Observe/Flush/Close batch ops for a single producer, like Writer:
// they must come from one goroutine. PushOps and PushFrame are safe for
// many producers at once — each gets back its own frame's watermark to
// wait on — and Acked, WaitAcked and Abandon are safe from any goroutine
// (the cluster gateway's HTTP handlers, ack relay and shutdown use them
// so).
type StreamClient struct {
	cfg StreamClientConfig

	// ctx ends when the client closes: it cuts a dial or a wait between
	// attempts short.
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond

	conn net.Conn
	gen  uint64 // bumps per established connection; readLoop's identity

	// unacked holds the encoded envelopes of every DATA frame not yet
	// covered by a cumulative ack, oldest first. The frames at indexes
	// below sentOnConn−ackedOnConn are on the wire of the current
	// connection; the rest await (re)send. Acks shift it down in place,
	// so its array, at most Window long, is allocated once; toSend is the
	// pumper's copy of the frames it writes unlocked, reused likewise.
	unacked     [][]byte
	toSend      [][]byte
	sentOnConn  uint64 // DATA frames written on the current connection
	ackedOnConn uint64

	totalSent  uint64 // DATA frames handed to the window, ever
	totalAcked uint64 // DATA frames settled by acks, ever
	reconnects uint64

	pumping  bool      // a sender is mid-pump (writes happen unlocked)
	attempts int       // dials since the last ack; they shape the next wait
	stalled  time.Time // when the first of them began; RetryFor runs from here
	lastErr  error     // newest transport error, for budget-exhausted reports
	fatal    error     // server verdict that retrying cannot change
	closed   error     // ErrClosed after Close, ErrAbandoned after Abandon
	// spent counts the outages that ran out of RetryFor; spentErr is the
	// last one's report. A call waiting when the count moves was a waiter
	// of that outage and fails with it: one budget per outage, however
	// many producers wait it out.
	spent    uint64
	spentErr error

	// ackDue is when the current connection, while it has frames in
	// flight, must next send an ACK (zero while it has none); watch drops
	// a connection that misses it, so an upstream that neither answers nor
	// closes (a stopped process) costs the retry budget, not the sender.
	ackDue time.Time
	watch  *time.Timer

	batch []Op // ops accumulating toward the next DATA frame
	seq   uint64
}

// NewStreamClient returns a client ready to send; the first Put dials.
func NewStreamClient(cfg StreamClientConfig) *StreamClient {
	c := &StreamClient{cfg: cfg.withDefaults()}
	c.ctx, c.cancel = context.WithCancel(context.Background())
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

// flushBatch sends the pending ops as one DATA frame keyed by the
// client's own source and next sequence number.
func (c *StreamClient) flushBatch() error {
	if len(c.batch) == 0 {
		return nil
	}
	env, err := dataEnvelope(c.cfg.Source, c.seq+1, c.batch)
	if err != nil {
		return err
	}
	c.seq++
	c.batch = c.batch[:0]
	_, err = c.sendEnvelope(env)
	return err
}

// dataEnvelope encodes ops under the key (source, seq) as one DATA
// frame's envelope. The whole envelope is built in one buffer — header
// space reserved up front, payload appended behind it, sealed by
// FinishFrame — so a frame costs a single allocation.
func dataEnvelope(source string, seq uint64, ops []Op) ([]byte, error) {
	// Sized for the largest event ops; meta/census are rare enough that a
	// regrow on their account is fine.
	hint := wal.FrameHeaderSize + 1 + keyedHeaderSize(source) + opsHeaderSize + eventWireMax*len(ops)
	env := make([]byte, wal.FrameHeaderSize, hint)
	env = append(env, StreamFrameData)
	env, err := encodeKeyedOps(env, source, seq, ops)
	if err != nil {
		return nil, err
	}
	return wal.FinishFrame(env)
}

// PushOps encodes ops as one DATA frame keyed (source, seq) — the bytes
// EncodeFrame(nil, source, seq, ops) writes, once, straight into the
// envelope the window keeps — and hands it over like PushFrame,
// returning its watermark. The cluster gateway sends each slot's share
// of a write through this, under the key the share travels with; the
// key space is the caller's, as with PushFrame.
func (c *StreamClient) PushOps(source string, seq uint64, ops []Op) (uint64, error) {
	env, err := dataEnvelope(source, seq, ops)
	if err != nil {
		return 0, err
	}
	return c.sendEnvelope(env)
}

// PushFrame hands one pre-encoded ops-codec frame (plain or keyed —
// the bytes DecodeFrame accepts) to the window verbatim and returns its
// watermark: the frame is settled once WaitAcked of that value returns.
// The watermark is assigned under the client's lock, so producers
// sharing one client each wait for their own frame. The cluster gateway
// forwards a keyed frame one slot owns through this, byte for byte;
// callers mixing PushFrame with Put own the coherence of their key
// space.
func (c *StreamClient) PushFrame(frame []byte) (uint64, error) {
	env := make([]byte, wal.FrameHeaderSize, wal.FrameHeaderSize+1+len(frame))
	env = append(env, StreamFrameData)
	env = append(env, frame...)
	env, err := wal.FinishFrame(env)
	if err != nil {
		return 0, err
	}
	return c.sendEnvelope(env)
}

// sendEnvelope blocks while the window is full, then appends env, pumps
// the connection and returns env's watermark.
func (c *StreamClient) sendEnvelope(env []byte) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed != nil {
		return 0, c.closed
	}
	for outage := c.spent; len(c.unacked) >= c.cfg.Window; {
		if err := c.failedLocked(outage); err != nil {
			return 0, err
		}
		if c.conn == nil {
			if err := c.pumpLocked(); err != nil {
				return 0, err
			}
			continue
		}
		c.cond.Wait()
	}
	c.unacked = append(c.unacked, env)
	c.totalSent++
	mark := c.totalSent // pumpLocked unlocks: other producers may append
	return mark, c.pumpLocked()
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
// n DATA frames, redialing and resending as needed. n beyond the frames
// handed over never settles; callers pass a watermark PushOps or
// PushFrame returned.
func (c *StreamClient) WaitAcked(n uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for outage := c.spent; c.totalAcked < n; {
		if err := c.failedLocked(outage); err != nil {
			return err
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

// failedLocked is why a call that began waiting at outage count outage
// must stop: a server verdict, the outage it waited in running out of
// budget (what the pumper reported, not a fresh budget of its own), or
// the client closing. nil means wait on.
func (c *StreamClient) failedLocked(outage uint64) error {
	switch {
	case c.fatal != nil:
		return c.fatal
	case c.spent != outage:
		return c.spentErr
	}
	return c.closed
}

// Close flushes, settles the window, sends a CLOSE frame, and tears
// the connection down. Idempotent; later sends return ErrClosed.
func (c *StreamClient) Close() error {
	err := c.Flush()
	c.shut(ErrClosed)
	return err
}

// Abandon closes the client without settling its window: a dial or a
// wait in progress ends, the connection is cut with no CLOSE, and every
// blocked and later call returns ErrAbandoned. Frames not yet
// acknowledged stay unacknowledged — whoever handed them over resends
// them under their keys. Safe from any goroutine; idempotent.
func (c *StreamClient) Abandon() { c.shut(ErrAbandoned) }

// shut marks the client closed with why, the error later calls return,
// and ends its connection, if it has one, after a CLOSE frame when the
// client was closed rather than abandoned.
func (c *StreamClient) shut(why error) {
	c.cancel()
	c.mu.Lock()
	conn := c.conn
	if c.closed == nil {
		c.closed = why
	}
	c.conn = nil
	if c.watch != nil {
		c.watch.Stop()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if conn != nil {
		if why == ErrClosed {
			// Best effort: the window is already settled, so CLOSE is
			// courtesy, not correctness.
			_, _ = conn.Write(wal.AppendFrame(nil, []byte{StreamFrameClose}))
		}
		conn.Close()
	}
}

// pumpLocked drives the connection until every unacked frame has been
// written on a live connection: dial (with bounded, backed-off
// retries), resend the unacked window, send anything new. Only one
// caller pumps at a time; others wait — the pumper writes their frames
// too. Called with mu held; unlocks around dials and writes.
func (c *StreamClient) pumpLocked() error {
	for outage := c.spent; c.pumping; {
		c.cond.Wait()
		if err := c.failedLocked(outage); err != nil {
			return err
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
		if c.closed != nil {
			return c.closed
		}
		if c.conn == nil {
			if c.attempts == 0 {
				c.stalled = time.Now()
			} else if wait := min(retryWait(c.attempts), time.Until(c.stalled.Add(c.cfg.RetryFor))); wait > 0 {
				// The gap after a failed attempt, cut short by the end of the
				// budget or of the client (whose dial then fails at once).
				t := time.NewTimer(wait)
				c.mu.Unlock()
				select {
				case <-t.C:
				case <-c.ctx.Done():
					t.Stop()
				}
				c.mu.Lock()
			}
			if time.Since(c.stalled) >= c.cfg.RetryFor {
				// The outage is over for everyone waiting in it (the deferred
				// broadcast wakes them into failedLocked); the next send starts
				// a new one with a full budget.
				c.spentErr = fmt.Errorf("ingest: stream made no progress in %v (%d connection attempts): %w", c.cfg.RetryFor, c.attempts, c.lastErr)
				c.spent++
				c.attempts = 0
				return c.spentErr
			}
			c.attempts++
			ctx, cancel := context.WithDeadline(c.ctx, c.stalled.Add(c.cfg.RetryFor))
			c.mu.Unlock()
			conn, err := c.dial(ctx)
			cancel()
			c.mu.Lock()
			if err != nil {
				c.lastErr = err
				if c.cfg.Logf != nil {
					c.cfg.Logf("ingest stream: dial %d failed: %v", c.attempts, err)
				}
				continue
			}
			if c.closed != nil {
				conn.Close()
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
		c.toSend = append(c.toSend[:0], c.unacked[inflight:]...)
		c.sentOnConn += uint64(len(c.toSend))
		if inflight == 0 {
			c.awaitAckLocked()
		}
		conn, gen, toSend := c.conn, c.gen, c.toSend
		c.mu.Unlock()
		var werr error
		for _, env := range toSend {
			if _, werr = conn.Write(env); werr != nil {
				break
			}
		}
		clear(toSend) // the window holds the envelopes; the copy lets go
		c.mu.Lock()
		if werr != nil && gen == c.gen && conn == c.conn {
			c.dropConnLocked(conn, werr)
		}
		// Loop: recheck under the lock — the connection may have died
		// (our write error or the reader's), leaving frames to resend.
	}
}

func (c *StreamClient) dial(ctx context.Context) (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial(ctx)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", c.cfg.Addr)
}

// dropConnLocked retires the current connection after a transport
// error. Unacked frames stay queued; the next pump resends them.
func (c *StreamClient) dropConnLocked(conn net.Conn, err error) {
	c.lastErr = err
	c.conn = nil
	c.ackDue = time.Time{}
	conn.Close()
	c.cond.Broadcast()
}

// awaitAckLocked starts the current connection's ack clock: frames went
// in flight on it, and it has RetryFor to acknowledge one.
func (c *StreamClient) awaitAckLocked() {
	c.ackDue = time.Now().Add(c.cfg.RetryFor)
	if c.watch == nil {
		c.watch = time.AfterFunc(c.cfg.RetryFor, c.checkAcks)
	} else {
		c.watch.Reset(c.cfg.RetryFor)
	}
}

// checkAcks drops a connection whose ack clock ran out, or sleeps until
// it will; the existing redial path and its budget then take over.
func (c *StreamClient) checkAcks() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil || c.ackDue.IsZero() || c.closed != nil {
		return
	}
	if wait := time.Until(c.ackDue); wait > 0 {
		c.watch.Reset(wait)
		return
	}
	c.dropConnLocked(c.conn, fmt.Errorf("ingest: no ack in %v with %d frames in flight", c.cfg.RetryFor, c.sentOnConn-c.ackedOnConn))
}

// readLoop consumes ACK/ERR frames for one connection. gen ties the
// loop to its connection: bookkeeping is applied only while the client
// still considers conn current.
func (c *StreamClient) readLoop(conn net.Conn, gen uint64) {
	br := bufio.NewReaderSize(conn, 4<<10)
	fr := wal.NewFrameReader(br)
	for {
		// A reply is judged on its header: a length past maxStreamReply
		// drops the connection before anything is sized from it.
		if hdr, err := br.Peek(wal.FrameHeaderSize); err == nil {
			if n := binary.LittleEndian.Uint32(hdr); n > maxStreamReply {
				c.connFailed(conn, gen, fmt.Errorf("ingest: reply frame of %d bytes, over %d", n, maxStreamReply))
				return
			}
		}
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
	// Any ACK restarts the clock, one that repeats the count too: a
	// gateway waiting out a failover upstream sends those, a frozen
	// upstream sends nothing.
	c.ackDue = time.Time{}
	if n < c.sentOnConn {
		c.ackDue = time.Now().Add(c.cfg.RetryFor)
	}
	c.ackedOnConn = n
	c.totalAcked += delta
	kept := copy(c.unacked, c.unacked[delta:])
	clear(c.unacked[kept:]) // a settled envelope is not held
	c.unacked = c.unacked[:kept]
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
