package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"swarmavail/internal/obs"
	"swarmavail/internal/wal"
)

// The binary streaming ingest protocol (DESIGN.md §12). One TCP (or any
// full-duplex byte-stream) connection carries a sequence of frames in
// both directions, each wrapped in the WAL envelope — u32 LE payload
// length, u32 LE CRC32-C, payload (wal.AppendFrame / wal.FrameReader) —
// so a frame that passes the envelope check on arrival is, byte for
// byte, a frame the journal can store and recovery can replay.
//
// Frame payloads start with a one-byte type:
//
//	client → server
//	  0x01 DATA   rest = one ops-codec frame (plain or keyed,
//	              identical to the WAL payload format)
//	  0x02 CLOSE  empty; asks for a final cumulative ACK, then close
//
//	server → client
//	  0x81 ACK    u64 LE: cumulative count of DATA frames accepted on
//	              this connection (applied or deduplicated — both are
//	              acknowledgements)
//	  0x82 ERR    u8 code + UTF-8 message; the connection closes after
//
// Acks are cumulative and coalesced, and so are commits — over the same
// backlog: the server submits every complete DATA frame its read buffer
// holds (at most streamAckEvery) as one group — one WAL write, one fsync
// — and then writes one ACK for it, so a fast sender pays one fsync and
// one ack per burst, not per frame, while a lone frame commits alone.
// Group size is set by how many frames arrived during the previous
// commit; there is no timer.
const (
	StreamFrameData  = 0x01
	StreamFrameClose = 0x02
	StreamFrameAck   = 0x81
	StreamFrameErr   = 0x82
)

// ERR frame codes. A codec or protocol error is fatal to the
// connection but — by construction — leaves engine state untouched:
// frames are fully decoded before anything is journaled or applied.
const (
	// StreamErrCodec: a DATA frame's ops payload failed to decode.
	StreamErrCodec = 1
	// StreamErrState: the node refused the write (closing, closed or
	// fenced).
	StreamErrState = 2
	// StreamErrProto: a torn or corrupt envelope, or an unknown frame
	// type — the stream is unsynchronized and cannot continue.
	StreamErrProto = 3
)

// streamAckEvery bounds a commit group, and with it ack coalescing: at
// most this many DATA frames are accepted between acks even when the
// sender never lets the read buffer drain.
const streamAckEvery = 64

// A connection's read buffer starts at streamReadBuf and doubles, up to
// streamReadBufMax, whenever a read fills it — the sender is ahead of
// the server, which is exactly when a larger backlog buys a larger
// group. The ceiling holds ≈40 full frames (512 event ops ≈ 6.3 KiB at
// the ≈12 B an event costs on a benchmark tail): past ≈20 an fsync is a
// few percent of what the group's own decode and apply cost, so more
// buffer would buy memory, not throughput. The
// floor keeps a fleet of a thousand paced monitors at 64 KiB a
// connection. A single frame larger than the buffer grows it to that
// frame's size.
const (
	streamReadBuf    = 64 << 10
	streamReadBufMax = 256 << 10
)

// MaxStreamFrame bounds one stream frame's payload, on a node and on
// the gateway that forwards to it. Far below wal.MaxFrameBytes: a
// single DATA frame is one client batch, and a length claiming more
// than this is a framing desync, not a batch.
const MaxStreamFrame = 8 << 20

// errFenced is the refusal a fenced node's stream surface gives.
var errFenced = errors.New("ingest: node fenced by a newer cluster epoch")

// StreamError is an ERR frame: the server's verdict as the client
// surfaces it, and as a StreamSession reports one it owes the peer.
type StreamError struct {
	Code byte
	Msg  string
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("ingest: stream error %d: %s", e.Code, e.Msg)
}

// StreamServer serves the binary streaming ingest protocol over an
// Engine. One StreamServer handles any number of concurrent
// connections; per-connection state is local to ServeConn.
type StreamServer struct {
	// Fenced, when set (before Serve), is asked before every commit; while
	// it answers true the node has been fenced by a newer cluster epoch
	// (cluster.EpochGate) and DATA frames are refused with ERR state —
	// journaled nowhere, acknowledged never — so the epoch fence covers
	// this surface as it covers the HTTP one.
	Fenced func() bool

	e    *Engine
	logf func(format string, args ...any)

	frames    *obs.Counter   // ingest_stream_frames_total: DATA frames accepted
	bytes     *obs.Counter   // ingest_stream_bytes_total: wire bytes received
	conns     *obs.Counter   // ingest_stream_conns_total: connections served
	errs      *obs.Counter   // ingest_stream_errors_total: ERR frames sent
	ackWindow *obs.Histogram // ingest_stream_ack_window: DATA frames covered per ACK

	accept StreamAcceptor
}

// NewStreamServer registers the stream series on e's registry and
// returns a server ready to accept connections.
func NewStreamServer(e *Engine, logf func(format string, args ...any)) *StreamServer {
	reg := e.Registry()
	s := &StreamServer{
		e:         e,
		logf:      logf,
		frames:    reg.Counter("ingest_stream_frames_total"),
		bytes:     reg.Counter("ingest_stream_bytes_total"),
		conns:     reg.Counter("ingest_stream_conns_total"),
		errs:      reg.Counter("ingest_stream_errors_total"),
		ackWindow: reg.Histogram("ingest_stream_ack_window", obs.SizeBuckets),
	}
	s.accept.Handle = func(conn net.Conn) {
		if err := s.ServeConn(conn); err != nil && s.logf != nil {
			s.logf("ingest stream %s: %v", conn.RemoteAddr(), err)
		}
	}
	return s
}

// Serve accepts connections from ln until the listener closes (or
// Close is called), handling each on its own goroutine. It returns nil
// on a clean listener close.
func (s *StreamServer) Serve(ln net.Listener) error { return s.accept.Serve(ln) }

// Close tears down every active connection. In-flight frames that were
// already acknowledged are journaled/applied; everything after the cut
// is the client's to resend (keyed frames make the resend exactly-once).
func (s *StreamServer) Close() { s.accept.Close() }

// StreamAcceptor is the accept side of a stream front: the loop that
// hands each connection to Handle on its own goroutine, and the registry
// of live connections that lets Close cut them. A node's StreamServer
// and the cluster gateway's stream front are both written on it, so
// closing either really ends its streams.
type StreamAcceptor struct {
	// Handle serves one connection; the acceptor closes conn when it
	// returns. Set before Serve.
	Handle func(conn net.Conn)

	mu     sync.Mutex
	active map[net.Conn]struct{}
	closed bool
}

// Serve accepts connections from ln until the listener closes or Close
// is called, and returns once every connection's Handle has: nil on a
// clean end, the listener's error otherwise.
func (a *StreamAcceptor) Serve(ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !a.track(conn) {
			conn.Close()
			return nil
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer a.untrack(conn)
			a.Handle(conn)
		}(conn)
	}
}

func (a *StreamAcceptor) track(conn net.Conn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	if a.active == nil {
		a.active = map[net.Conn]struct{}{}
	}
	a.active[conn] = struct{}{}
	return true
}

func (a *StreamAcceptor) untrack(conn net.Conn) {
	conn.Close()
	a.mu.Lock()
	delete(a.active, conn)
	a.mu.Unlock()
}

// Close cuts every live connection and refuses the ones still to come.
// A handler sees its connection fail between frames or mid-frame; what
// it had acknowledged stands, the rest is the client's to resend.
func (a *StreamAcceptor) Close() {
	a.mu.Lock()
	a.closed = true
	for conn := range a.active {
		conn.Close()
	}
	a.mu.Unlock()
}

// StreamSession is the server half of the protocol on one connection:
// the buffer-owning frame reader, its verdicts, and the ACK/ERR writers.
// StreamServer.ServeConn and the cluster gateway's stream front are both
// written on it, so a frame is bounded, judged and refused the same way
// whichever of them a monitor dialed.
//
// Next belongs to the connection's one reading goroutine. The writers
// (Ack, Err, End) share no state with it, so they may run on another —
// the gateway's ack relay does — but one at a time: the gateway's serve
// loop calls End only after its relay has exited.
type StreamSession struct {
	conn io.ReadWriter

	// buf[r:w] is received and not yet consumed. Frames Next returns alias
	// it, so it is refilled only by a Next that may wait. full records
	// that the last read filled it: the cue to grow.
	buf  []byte
	r, w int
	full bool

	wbuf []byte // outbound frame scratch

	bytes, errs *obs.Counter // a StreamServer's series; nil on a gateway
}

// NewStreamSession starts the protocol's server half on conn.
func NewStreamSession(conn io.ReadWriter) *StreamSession {
	return &StreamSession{conn: conn, buf: make([]byte, streamReadBuf)}
}

// Next returns the next frame: its type (StreamFrameData or
// StreamFrameClose) and the payload after the type byte, which aliases
// the read buffer until the next call with wait set. With wait unset it
// never touches the network: typ 0 means the buffer holds no complete
// frame. The error is io.EOF when the peer ended the stream between
// frames, a *StreamError for a protocol verdict — corrupt or torn
// envelope, a header claiming more than MaxStreamFrame (refused on the
// header alone: the payload is never buffered), unknown frame type —
// and the transport's own otherwise; End answers each.
func (s *StreamSession) Next(wait bool) (typ byte, body []byte, err error) {
	for {
		payload, size, err := wal.ParseFrame(s.buf[s.r:s.w])
		switch {
		case err != nil:
			return 0, nil, protoError("corrupt frame: %v", err)
		case size-wal.FrameHeaderSize > MaxStreamFrame:
			return 0, nil, protoError("oversized stream frame (%d bytes)", size-wal.FrameHeaderSize)
		case payload != nil:
			s.r += size
			if typ = payload[0]; typ != StreamFrameData && typ != StreamFrameClose {
				return 0, nil, protoError("unknown frame type 0x%02x", typ)
			}
			return typ, payload[1:], nil
		case !wait:
			return 0, nil, nil
		}
		if err := s.fill(size); err != nil {
			if errors.Is(err, io.EOF) && s.r != s.w {
				return 0, nil, protoError("corrupt frame: %v: torn frame: %d bytes then EOF", wal.ErrCorrupt, s.w-s.r)
			}
			return 0, nil, err
		}
	}
}

func protoError(format string, args ...any) *StreamError {
	return &StreamError{Code: StreamErrProto, Msg: fmt.Sprintf(format, args...)}
}

// fill blocks until more bytes arrive, making room for a frame of need
// bytes. No frame handed out is still in use when it runs, so the
// unconsumed tail (less than one frame) may move to the front.
func (s *StreamSession) fill(need int) error {
	s.w = copy(s.buf, s.buf[s.r:s.w])
	s.r = 0
	size := len(s.buf)
	if s.full && size < streamReadBufMax {
		size *= 2
	}
	if size = max(size, need); size > len(s.buf) {
		s.buf = append(make([]byte, 0, size), s.buf[:s.w]...)[:size]
	}
	for {
		n, err := s.conn.Read(s.buf[s.w:])
		s.bytes.Add(uint64(n)) // envelope included, counted where they enter
		s.w += n
		s.full = s.w == len(s.buf)
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// End ends the stream for err — one from Next, or the caller's own
// verdict as a *StreamError — and returns what the serve loop should:
// nil for a peer that simply went away (crash, reset, no CLOSE:
// everything acknowledged stands, everything else was never applied),
// err otherwise, after sending the ERR frame a verdict is owed.
func (s *StreamSession) End(err error) error {
	if errors.Is(err, io.EOF) {
		return nil
	}
	var verdict *StreamError
	if errors.As(err, &verdict) {
		s.Err(verdict.Code, verdict.Msg)
	}
	return err
}

// Ack writes one ACK frame: count DATA frames accepted on this
// connection so far.
func (s *StreamSession) Ack(count uint64) error {
	var p [9]byte
	p[0] = StreamFrameAck
	binary.LittleEndian.PutUint64(p[1:], count)
	s.wbuf = wal.AppendFrame(s.wbuf[:0], p[:])
	_, err := s.conn.Write(s.wbuf)
	return err
}

// Err writes one ERR frame, best effort (the connection is about to
// close either way).
func (s *StreamSession) Err(code byte, msg string) {
	s.errs.Inc()
	if len(msg) > 512 {
		msg = msg[:512]
	}
	p := make([]byte, 0, 2+len(msg))
	p = append(p, StreamFrameErr, code)
	p = append(p, msg...)
	s.wbuf = wal.AppendFrame(s.wbuf[:0], p)
	_, _ = s.conn.Write(s.wbuf)
}

// streamConn is one node connection: a session plus the commit group.
type streamConn struct {
	s    *StreamServer
	sess StreamSession

	group []batch // staged DATA frames, committed together

	accepted  uint64 // DATA frames accepted (applied or deduplicated)
	lastAcked uint64
}

// ServeConn runs the protocol on one connection until the peer closes,
// a CLOSE frame completes, or an error ends the stream. The returned
// error describes why the stream ended (nil for clean ends); the caller
// owns closing conn.
//
// DATA frames are staged while the read buffer holds complete ones and
// committed as a group the moment anything else comes up — the ack
// bound, a non-DATA frame, a bad envelope, or a read that would block —
// so on every exit path a frame that was read is either
// committed-then-acked or was never touched, and the server never waits
// on the network with frames staged.
func (s *StreamServer) ServeConn(conn net.Conn) error {
	s.conns.Inc()
	c := &streamConn{s: s, sess: StreamSession{
		conn: conn, buf: make([]byte, streamReadBuf), bytes: s.bytes, errs: s.errs,
	}}
	for {
		// Staged frames alias the read buffer: wait only with none.
		typ, body, err := c.sess.Next(len(c.group) == 0)
		if typ == StreamFrameData {
			c.group = append(c.group, batch{wire: body})
			if len(c.group) < streamAckEvery {
				continue
			}
		}
		if cerr := c.commit(); cerr != nil {
			return cerr
		}
		switch {
		case err != nil:
			return c.sess.End(err)
		case typ == StreamFrameClose:
			// Final cumulative ack, then a clean end. The client treats
			// the ack that covers its last DATA frame as full settlement.
			return c.sendAck()
		}
	}
}

// commit submits the staged frames as one group and acknowledges the
// accepted prefix. A frame the engine rejects ends the stream: the ACK
// for the frames before it goes out first, then the ERR. A fenced node
// submits nothing: the whole group is refused.
func (c *streamConn) commit() error {
	if len(c.group) == 0 {
		return nil
	}
	var n int
	var err error
	if c.s.Fenced != nil && c.s.Fenced() {
		err = errFenced
	} else {
		n, err = c.s.e.submit(c.group)
	}
	clear(c.group) // drop the aliases into the read buffer
	c.group = c.group[:0]
	if n > 0 {
		c.s.frames.Add(uint64(n))
		c.accepted += uint64(n)
		if err := c.sendAck(); err != nil {
			return err
		}
	}
	if err != nil {
		code := byte(StreamErrCodec)
		if errors.Is(err, ErrClosed) || errors.Is(err, errFenced) {
			code = StreamErrState
		}
		c.sess.Err(code, err.Error())
		return fmt.Errorf("data frame rejected: %w", err)
	}
	return nil
}

// sendAck writes one cumulative ACK frame.
func (c *streamConn) sendAck() error {
	c.s.ackWindow.Observe(float64(c.accepted - c.lastAcked))
	c.lastAcked = c.accepted
	return c.sess.Ack(c.accepted)
}
