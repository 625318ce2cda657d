package ingest_test

// The protocol-violation table, run against every front that serves the
// binary stream protocol: a node's StreamServer and the cluster
// gateway's ServeStream. Both are written on ingest.StreamSession, so
// both owe the same verdicts — this file is where that is held to
// account. (An external test package so it can reach internal/cluster.)

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/wal"
)

// serveStreamNode serves the stream protocol for e on a loopback
// listener, torn down with the test.
func serveStreamNode(t testing.TB, e *ingest.Engine) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := ingest.NewStreamServer(e, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ss.Serve(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		ss.Close()
		<-done
	})
	return ln.Addr().String()
}

func stateOf(e *ingest.Engine) []byte {
	e.Flush()
	rec := httptest.NewRecorder()
	ingest.WriteState(rec, e.Summary())
	return rec.Body.Bytes()
}

func dataEnvelope(t *testing.T, dst []byte, source string, seq uint64, ops []ingest.Op) []byte {
	t.Helper()
	frame, err := ingest.EncodeFrame(nil, source, seq, ops)
	if err != nil {
		t.Fatal(err)
	}
	return wal.AppendFrame(dst, append([]byte{ingest.StreamFrameData}, frame...))
}

// streamViolations sends a valid frame to the front at addr, then one
// connection per row of torn, corrupt or out-of-bounds bytes, and
// requires (a) an ERR frame with the row's code, (b) the connection to
// die, and (c) state() — the front's rendered /v1/state — to be exactly
// what the valid frames left. A row may pipeline good frames around the
// bad one in a single burst: the prefix is applied and ACKed, the bad
// frame and the suffix touch nothing, and exactly one ERR follows. It
// returns the number of DATA frames that must stand.
func streamViolations(t *testing.T, addr string, state func() []byte) (stood uint64) {
	ref := ingest.New(ingest.Config{Shards: 1}) // fed exactly the frames that must stand
	defer ref.Close()
	dial := func(t *testing.T) (net.Conn, *wal.FrameReader) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		return conn, wal.NewFrameReader(conn)
	}

	ops := []ingest.Op{
		ingest.EventOp(ingest.Record{SwarmID: 1, PeerID: 7, Seed: true, Online: true, Time: 0.5}),
		ingest.EventOp(ingest.Record{SwarmID: 2, PeerID: 9, Online: true, Time: 1.5}),
	}
	conn, fr := dial(t)
	if _, err := conn.Write(dataEnvelope(t, nil, "mon-a", 1, ops)); err != nil {
		t.Fatal(err)
	}
	if ack, err := fr.Next(); err != nil || ack[0] != ingest.StreamFrameAck {
		t.Fatalf("want ACK, got %v / %v", ack, err)
	}
	if err := ref.Submit(ops); err != nil {
		t.Fatal(err)
	}
	stood = 1

	flipBit := func(env []byte) []byte {
		env[len(env)-1] ^= 0x40
		return env
	}
	badCodec := func([]byte) []byte {
		return wal.AppendFrame(nil, []byte{ingest.StreamFrameData, 0xEE, 0xFF, 0x00, 0x01, 0x02})
	}
	// A well-formed frame whose last event is timestamped NaN, as an
	// encoder without the check would send it (EncodeFrame refuses to).
	nanTime := func([]byte) []byte {
		frame, err := ingest.EncodeFrame(nil, "mon-bad", 99, ops)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(frame[len(frame)-8:], math.Float64bits(math.NaN()))
		return wal.AppendFrame(nil, append([]byte{ingest.StreamFrameData}, frame...))
	}
	cases := []struct {
		name     string
		prefix   int // good frames pipelined ahead of the bad one (and two behind it)
		corrupt  func(env []byte) []byte
		wantCode byte
		open     bool // leave the write side open: the ERR must not need an EOF
	}{
		{"flipped payload bit", 0, flipBit, ingest.StreamErrProto, false},
		{"torn frame then close", 0, func(env []byte) []byte { return env[:len(env)-5] }, ingest.StreamErrProto, false},
		{"bad ops codec", 0, badCodec, ingest.StreamErrCodec, false},
		{"unknown frame type", 0, func([]byte) []byte {
			return wal.AppendFrame(nil, []byte{0x7F, 0x00})
		}, ingest.StreamErrProto, false},
		{"bad ops codec mid-burst", 3, badCodec, ingest.StreamErrCodec, false},
		{"non-finite event time mid-burst", 2, nanTime, ingest.StreamErrCodec, false},
		{"flipped payload bit mid-burst", 2, flipBit, ingest.StreamErrProto, false},
		// Only the eight header bytes, claiming one byte past the bound: the
		// refusal must come on the header alone, not after a payload the
		// peer never sends.
		{"oversized header, no payload", 0, func([]byte) []byte {
			var hdr [wal.FrameHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[:4], ingest.MaxStreamFrame+1)
			return hdr[:]
		}, ingest.StreamErrProto, true},
	}
	for row, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, fr := dial(t)
			// Good frame i of this row's burst, on a swarm of its own so a
			// frame that slipped through would show in the state.
			burstFrame := func(dst []byte, i int, stands bool) []byte {
				ops := []ingest.Op{ingest.EventOp(ingest.Record{SwarmID: 100*(row+1) + i, PeerID: 1, Seed: true, Online: true, Time: 0.25})}
				if stands {
					if err := ref.Submit(ops); err != nil {
						t.Fatal(err)
					}
				}
				return dataEnvelope(t, dst, fmt.Sprintf("mon-burst-%d", row), uint64(i+1), ops)
			}
			var burst []byte
			for i := 0; i < tc.prefix; i++ {
				burst = burstFrame(burst, i, true)
			}
			stood += uint64(tc.prefix)
			burst = append(burst, tc.corrupt(dataEnvelope(t, nil, "mon-bad", 99, ops))...)
			if tc.prefix > 0 {
				for i := tc.prefix; i < tc.prefix+2; i++ {
					burst = burstFrame(burst, i, false)
				}
			}
			if _, err := conn.Write(burst); err != nil {
				t.Fatal(err)
			}
			if !tc.open {
				conn.(*net.TCPConn).CloseWrite()
			}
			// ACKs for the prefix (cumulative; however the burst was
			// segmented), then exactly one ERR, then EOF.
			var acked uint64
			payload, err := fr.Next()
			for ; err == nil && payload[0] == ingest.StreamFrameAck; payload, err = fr.Next() {
				acked = binary.LittleEndian.Uint64(payload[1:])
			}
			if err != nil {
				t.Fatalf("want ERR frame, got read error %v", err)
			}
			if payload[0] != ingest.StreamFrameErr || payload[1] != tc.wantCode {
				t.Fatalf("got frame %v, want ERR code %d", payload[:2], tc.wantCode)
			}
			if acked != uint64(tc.prefix) {
				t.Fatalf("ACKed %d frames ahead of the ERR, want the prefix of %d", acked, tc.prefix)
			}
			if _, err := fr.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("connection should close after ERR, got %v", err)
			}
		})
	}

	if got, want := state(), stateOf(ref); !bytes.Equal(got, want) {
		t.Fatalf("rejected frames changed the served state\ngot:  %s\nwant: %s", got, want)
	}
	return stood
}

// TestStreamCorruptFramesLeaveStateUnchanged runs the table against a
// durable node, and adds what only a node can show: the record counter
// and the journal hold exactly the frames that stood.
func TestStreamCorruptFramesLeaveStateUnchanged(t *testing.T) {
	e, _, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stood := streamViolations(t, serveStreamNode(t, e), func() []byte { return stateOf(e) })
	if got, want := e.Metrics().Records, stood+1; got != want { // the first frame carries two ops
		t.Fatalf("records = %d across rejected frames, want %d", got, want)
	}
	if got := e.WAL().LastSeq(); got != stood {
		t.Fatalf("journal holds %d frames, want %d: a rejected frame or a suffix reached the WAL", got, stood)
	}
}

// serveStreamGateway serves the stream protocol on ln through a cluster
// gateway over two in-memory nodes, torn down with the test, and returns
// the gateway's base URL. logf takes the gateway's log lines (nil drops
// them: a fuzz target may not log through its *testing.F).
func serveStreamGateway(t testing.TB, ln net.Listener, logf func(string, ...any)) string {
	t.Helper()
	nodes := make([]cluster.NodeConfig, 2)
	for i := range nodes {
		e := ingest.New(ingest.Config{Shards: 2})
		t.Cleanup(e.Close)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
			ingest.WriteJSON(w, map[string]string{"state": "serving"})
		})
		ingest.RegisterReadHandlers(mux, e)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		nodes[i] = cluster.NodeConfig{Name: fmt.Sprintf("n%d", i), URL: srv.URL, BinAddr: serveStreamNode(t, e)}
	}
	g, err := cluster.NewGateway(cluster.GatewayConfig{Nodes: nodes, HealthEvery: time.Hour, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = g.ServeStream(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		g.Close()
	})
	return gw.URL
}

// gatewayState reads the gateway's merged /v1/state?consistent=1.
func gatewayState(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/state?consistent=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/state: %s / %v", resp.Status, err)
	}
	return body
}

// TestGatewayStreamCorruptFramesLeaveStateUnchanged runs the same table
// against the gateway's stream front over two nodes: same ERR codes,
// prefix ACKed, and the merged /v1/state?consistent=1 equal to the
// reference's.
func TestGatewayStreamCorruptFramesLeaveStateUnchanged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := serveStreamGateway(t, ln, t.Logf)
	streamViolations(t, ln.Addr().String(), func() []byte { return gatewayState(t, url) })
}

// memConn is one end of an in-memory full-duplex connection with a
// half-close, so a fuzz run costs no TCP port per stream. Deadlines are
// not supported (the fronts set none on a monitor's connection).
type memConn struct {
	*io.PipeReader
	*io.PipeWriter
}

func memPipe() (client, server *memConn) {
	cr, sw := io.Pipe()
	sr, cw := io.Pipe()
	return &memConn{cr, cw}, &memConn{sr, sw}
}

func (c *memConn) CloseWrite() error { return c.PipeWriter.Close() }
func (c *memConn) Close() error {
	c.PipeWriter.Close()
	return c.PipeReader.Close()
}
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memListener hands a front the server ends of memPipes.
type memListener struct {
	conns  chan net.Conn
	closed chan struct{}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}
func (l *memListener) Close() error   { close(l.closed); return nil }
func (l *memListener) Addr() net.Addr { return memAddr{} }

// standing reads data as the protocol defines it, with none of the
// session code: frames come off the front while the envelope holds, a
// DATA frame ref accepts stands, and the first thing that is not one ends
// the stream — CLOSE cleanly, anything else with an ERR of the returned
// code (0 = none).
func standing(ref *ingest.Engine, data []byte) (stood uint64, errCode byte) {
	for len(data) > 0 {
		payload, size, err := wal.ParseFrame(data)
		if err != nil || payload == nil { // corrupt, or torn by the end of the stream
			return stood, ingest.StreamErrProto
		}
		data = data[size:]
		switch payload[0] {
		case ingest.StreamFrameClose:
			return stood, 0
		case ingest.StreamFrameData:
			if _, err := ref.SubmitFrame(payload[1:]); err != nil {
				return stood, ingest.StreamErrCodec
			}
			stood++
		default:
			return stood, ingest.StreamErrProto
		}
	}
	return stood, 0
}

// converse plays data down conn, ends the stream, and returns the
// front's answer: the last cumulative ACK and the ERR code (0 = none).
func converse(t *testing.T, conn *memConn, data []byte) (acked uint64, errCode byte) {
	t.Helper()
	defer conn.Close()
	go func() {
		_, _ = conn.Write(data) // a front that has already refused cuts the write short
		conn.CloseWrite()
	}()
	fr := wal.NewFrameReader(conn)
	for {
		payload, err := fr.Next()
		switch {
		case errors.Is(err, io.EOF):
			return acked, errCode
		case err != nil:
			t.Fatalf("reading the front's answer: %v", err)
		case errCode != 0:
			t.Fatalf("frame % x after the ERR", payload)
		case payload[0] == ingest.StreamFrameAck && len(payload) == 9:
			acked = binary.LittleEndian.Uint64(payload[1:])
		case payload[0] == ingest.StreamFrameErr && len(payload) >= 2:
			errCode = payload[1]
		default:
			t.Fatalf("the front sent % x", payload)
		}
	}
}

// FuzzStreamFrames plays arbitrary bytes as one stream to both fronts of
// the protocol — a node's StreamServer.ServeConn and Gateway.ServeStream
// over two nodes. Neither may panic; both owe the verdict the protocol
// defines (standing): the same frames acknowledged, the same class of
// ERR; and both must serve exactly the state of the frames that stood,
// so a frame a front refused was neither acknowledged nor applied.
// Whatever the bytes did, the front still answers afterwards. The
// fronts live as long as the process — a stream is one connection, and
// dedup windows are meant to outlive it — so states are compared
// cumulatively, against a reference fed every stream's standing frames.
func FuzzStreamFrames(f *testing.F) {
	ops := []ingest.Op{ingest.EventOp(ingest.Record{SwarmID: 1, PeerID: 1, Online: true, Time: 1})}
	frame := func(source string, seq uint64, ops []ingest.Op) []byte {
		enc, err := ingest.EncodeFrame(nil, source, seq, ops)
		if err != nil {
			f.Fatal(err)
		}
		return wal.AppendFrame(nil, append([]byte{ingest.StreamFrameData}, enc...))
	}
	closeFrame := wal.AppendFrame(nil, []byte{ingest.StreamFrameClose})
	valid := frame("fuzz", 1, ops)
	f.Add(valid)
	f.Add(closeFrame)
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add(valid[:len(valid)-3])
	// A keyed frame wide enough for the gateway to split across slots, an
	// unkeyed frame, a duplicate, then CLOSE with bytes behind it.
	var wide []ingest.Op
	for id := 2; id < 10; id++ {
		wide = append(wide, ingest.EventOp(ingest.Record{SwarmID: id, PeerID: 1, Seed: true, Online: true, Time: float64(id)}))
	}
	f.Add(slices.Concat(valid, frame("fuzz", 2, wide), frame("", 0, ops), valid, closeFrame, []byte{0xde, 0xad}))
	// A frame the envelope passes and the codec refuses, mid-burst.
	f.Add(slices.Concat(frame("fuzz", 3, ops), wal.AppendFrame(nil, []byte{ingest.StreamFrameData, 0xEE, 0xFF, 0x00, 0x01, 0x02}), frame("fuzz", 4, ops)))

	ref := ingest.New(ingest.Config{Shards: 1})
	f.Cleanup(ref.Close)
	e := ingest.New(ingest.Config{Shards: 1})
	f.Cleanup(e.Close)
	ss := ingest.NewStreamServer(e, nil)
	ln := &memListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	gwURL := serveStreamGateway(f, ln, nil)

	fronts := []struct {
		name  string
		dial  func() *memConn
		state func(t *testing.T) []byte
	}{
		{"StreamServer.ServeConn", func() *memConn {
			cli, srv := memPipe()
			go func() {
				_ = ss.ServeConn(srv)
				srv.Close()
			}()
			return cli
		}, func(*testing.T) []byte { return stateOf(e) }},
		{"Gateway.ServeStream", func() *memConn {
			cli, srv := memPipe()
			ln.conns <- srv
			return cli
		}, func(t *testing.T) []byte { return gatewayState(t, gwURL) }},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stood, wantErr := standing(ref, data)
		want := stateOf(ref)
		for _, front := range fronts {
			if acked, errCode := converse(t, front.dial(), data); acked != stood || errCode != wantErr {
				t.Fatalf("%s acknowledged %d frames and sent ERR code %d, want %d and %d", front.name, acked, errCode, stood, wantErr)
			}
			if got := front.state(t); !bytes.Equal(got, want) {
				t.Fatalf("%s serves a state other than that of the frames that stood\ngot:  %s\nwant: %s", front.name, got, want)
			}
			if acked, errCode := converse(t, front.dial(), closeFrame); acked != 0 || errCode != 0 {
				t.Fatalf("%s after the fuzzed stream: a bare CLOSE got ACK %d, ERR code %d", front.name, acked, errCode)
			}
		}
	})
}
