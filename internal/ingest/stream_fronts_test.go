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
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/wal"
)

// serveStreamNode serves the stream protocol for e on a loopback
// listener, torn down with the test.
func serveStreamNode(t *testing.T, e *ingest.Engine) string {
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

// TestGatewayStreamCorruptFramesLeaveStateUnchanged runs the same table
// against the gateway's stream front over two nodes: same ERR codes,
// prefix ACKed, and the merged /v1/state?consistent=1 equal to the
// reference's.
func TestGatewayStreamCorruptFramesLeaveStateUnchanged(t *testing.T) {
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
	g, err := cluster.NewGateway(cluster.GatewayConfig{Nodes: nodes, HealthEvery: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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

	streamViolations(t, ln.Addr().String(), func() []byte {
		resp, err := http.Get(gw.URL + "/v1/state?consistent=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/state: %s / %v", resp.Status, err)
		}
		return body
	})
}
