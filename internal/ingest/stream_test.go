package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"swarmavail/internal/faultnet"
	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// startStreamServer serves the binary streaming protocol for e on a
// loopback listener, torn down with the test.
func startStreamServer(t testing.TB, e *Engine) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamServer(e, nil)
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

// studyOps renders a generated availability study as one flat op
// stream, the shared input of the parity tests.
func studyOps(swarms int, seed int64) []Op {
	var ops []Op
	for _, tr := range trace.GenerateStudy(trace.DefaultStudyConfig(swarms, seed)) {
		ops = append(ops, TraceOps(tr)...)
	}
	return ops
}

// renderAPI renders the engine's two read endpoints exactly as availd
// serves them; byte equality of these is the parity criterion.
func renderAPI(t testing.TB, e *Engine) (summary, cdf []byte) {
	t.Helper()
	e.Flush()
	sum := e.Summary()
	qs, err := ParseQuantiles("")
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewRecorder()
	WriteSummary(rs, sum)
	rc := httptest.NewRecorder()
	WriteCDF(rc, sum, qs)
	return rs.Body.Bytes(), rc.Body.Bytes()
}

// TestStreamSummaryParity drives the same op stream through the JSON
// path's core (Submit, as POST /v1/ingest does) and through the full
// binary stream stack — StreamClient over real TCP into a StreamServer
// — and requires the rendered /v1/summary and /v1/availability/cdf
// bodies to be byte-identical.
func TestStreamSummaryParity(t *testing.T) {
	ops := studyOps(120, 17)

	jsonE := New(Config{Shards: 4})
	defer jsonE.Close()
	for i := 0; i < len(ops); i += 500 {
		end := i + 500
		if end > len(ops) {
			end = len(ops)
		}
		if err := jsonE.Submit(ops[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	binE := New(Config{Shards: 4})
	defer binE.Close()
	addr := startStreamServer(t, binE)
	c := NewStreamClient(StreamClientConfig{Addr: addr, BatchSize: 97})
	for _, op := range ops {
		if err := c.Put(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Acked(), c.Sent(); got != want {
		t.Fatalf("acked %d of %d sent frames", got, want)
	}

	jsonSum, jsonCDF := renderAPI(t, jsonE)
	binSum, binCDF := renderAPI(t, binE)
	if !bytes.Equal(jsonSum, binSum) {
		t.Fatalf("summary diverged\n--- json ---\n%s\n--- binary ---\n%s", jsonSum, binSum)
	}
	if !bytes.Equal(jsonCDF, binCDF) {
		t.Fatalf("cdf diverged\n--- json ---\n%s\n--- binary ---\n%s", jsonCDF, binCDF)
	}
	if binE.Metrics().Records != jsonE.Metrics().Records {
		t.Fatalf("record counts diverged: binary %d, json %d",
			binE.Metrics().Records, jsonE.Metrics().Records)
	}
}

// dialStream opens one raw protocol connection for hand-rolled frames.
func dialStream(t *testing.T, addr string) (net.Conn, *wal.FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, wal.NewFrameReader(conn)
}

// writeData wraps one ops-codec frame as a DATA stream frame.
func writeData(t *testing.T, conn net.Conn, frame []byte) {
	t.Helper()
	payload := append([]byte{StreamFrameData}, frame...)
	if _, err := conn.Write(wal.AppendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
}

func mustEncodeFrame(t *testing.T, source string, seq uint64, ops []Op) []byte {
	t.Helper()
	frame, err := EncodeFrame(nil, source, seq, ops)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestStreamKeyedReplayDedups is the exactly-once ledger check on the
// stream path: a second client replaying an already-applied keyed frame
// (the lost-ack retry) is acknowledged without re-applying, and the
// duplicate is visible in ingest_deduped_total.
func TestStreamKeyedReplayDedups(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()
	addr := startStreamServer(t, e)

	ops := []Op{
		EventOp(Record{SwarmID: 3, PeerID: 1, Online: true, Time: 0.25}),
		EventOp(Record{SwarmID: 4, PeerID: 2, Seed: true, Online: true, Time: 0.75}),
		EventOp(Record{SwarmID: 3, PeerID: 1, Online: false, Time: 2}),
	}
	c1 := NewStreamClient(StreamClientConfig{Addr: addr, Source: "mon-replay"})
	for seq := uint64(1); seq <= 5; seq++ {
		if err := c1.PushFrame(mustEncodeFrame(t, "mon-replay", seq, ops)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	base := e.Metrics()
	if want := uint64(5 * len(ops)); base.Records != want {
		t.Fatalf("applied %d records, want %d", base.Records, want)
	}

	// The reconnect-shaped replay: same source, frames 2..4 again.
	c2 := NewStreamClient(StreamClientConfig{Addr: addr, Source: "mon-replay"})
	for seq := uint64(2); seq <= 4; seq++ {
		if err := c2.PushFrame(mustEncodeFrame(t, "mon-replay", seq, ops)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Records != base.Records {
		t.Fatalf("replay re-applied: records %d -> %d", base.Records, m.Records)
	}
	if want := base.Deduped + uint64(3*len(ops)); m.Deduped != want {
		t.Fatalf("deduped %d, want %d", m.Deduped, want)
	}

	// The same key twice inside one pipelined burst — one commit group:
	// applied once, acknowledged twice.
	conn, fr := dialStream(t, addr)
	var burst []byte
	for _, seq := range []uint64{6, 6, 7} {
		burst = wal.AppendFrame(burst, append([]byte{StreamFrameData}, mustEncodeFrame(t, "mon-replay", seq, ops)...))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for acked := uint64(0); acked < 3; {
		payload, err := fr.Next()
		if err != nil || payload[0] != StreamFrameAck {
			t.Fatalf("want ACKs covering the burst, got %v / %v", payload, err)
		}
		acked = binary.LittleEndian.Uint64(payload[1:])
	}
	burstM := e.Metrics()
	if want := m.Records + uint64(2*len(ops)); burstM.Records != want {
		t.Fatalf("burst with a repeated key applied %d records, want %d", burstM.Records-m.Records, 2*len(ops))
	}
	if want := m.Deduped + uint64(len(ops)); burstM.Deduped != want {
		t.Fatalf("burst with a repeated key deduplicated %d ops, want one batch of %d", burstM.Deduped-m.Deduped, len(ops))
	}
}

// TestStreamCrossedSourcesDoNotDeadlock is the lock-order proof for
// multi-source groups: two connections pipeline frames carrying the
// same two sources in opposite orders, without pausing for acks, so
// each server connection always has a backlog and every commit group
// needs both source windows. The windows are taken in one global order,
// so both streams finish; taken in arrival order they deadlock (each
// connection holding one window and waiting for the other) and the
// deadline fails the test. Run under -race in CI.
func TestStreamCrossedSourcesDoNotDeadlock(t *testing.T) {
	// Durable with fsync on: the windows are held across a real fsync, so
	// the two connections contend for them on every group.
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	addr := startStreamServer(t, e)

	// 2×480 keys in all: inside one dedup window however far one
	// connection runs ahead of the other, so nothing counts as a replay.
	const frames = 480
	ops := []Op{EventOp(Record{SwarmID: 1, PeerID: 1, Online: true, Time: 1})}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for ci, order := range [][2]string{{"src-a", "src-b"}, {"src-b", "src-a"}} {
		conn, fr := dialStream(t, addr)
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		wg.Add(2)
		go func() { // writer: never waits for an ack
			defer wg.Done()
			for k := 0; k < frames; k++ {
				// Each connection owns its half of every source's key space.
				frame, err := EncodeFrame(nil, order[k%2], uint64(2*k+ci+1), ops)
				if err != nil {
					errs <- err
					return
				}
				env := wal.AppendFrame(nil, append([]byte{StreamFrameData}, frame...))
				if _, err := conn.Write(env); err != nil {
					errs <- fmt.Errorf("conn %d write %d: %w", ci, k, err)
					return
				}
			}
		}()
		go func() { // reader: until the cumulative ack covers everything
			defer wg.Done()
			for acked := uint64(0); acked < frames; {
				payload, err := fr.Next()
				if err != nil || payload[0] != StreamFrameAck {
					errs <- fmt.Errorf("conn %d: want ACK past %d, got %v / %v", ci, acked, payload, err)
					return
				}
				acked = binary.LittleEndian.Uint64(payload[1:])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := e.Metrics().Records, uint64(2*frames*len(ops)); got != want {
		t.Fatalf("applied %d records, want %d (deduped %d)", got, want, e.Metrics().Deduped)
	}
}

// TestStreamConcurrentClientsWithResets is the -race battery: many
// clients stream concurrently through a fault-injecting network that
// resets connections mid-stream; every client rides the resets out by
// reconnecting and resending its unacked window. Exactly-once must hold
// to the record: the engine applies each record exactly once, no matter
// where the resets landed.
func TestStreamConcurrentClientsWithResets(t *testing.T) {
	e := New(Config{Shards: 4})
	defer e.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fn := faultnet.New(faultnet.Config{Seed: 7, ResetProb: 0.02})
	ss := NewStreamServer(e, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ss.Serve(fn.Listener(ln))
	}()
	defer func() {
		ln.Close()
		ss.Close()
		<-done
	}()

	const (
		clients = 6
		frames  = 40
		perOp   = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := NewStreamClient(StreamClientConfig{
				Source: fmt.Sprintf("mon-%d", ci),
				Dial: func() (net.Conn, error) {
					return fn.Dial("tcp", ln.Addr().String(), time.Second)
				},
				BatchSize:    perOp,
				Window:       8,
				RetryBackoff: 2 * time.Millisecond,
				MaxAttempts:  100,
			})
			for f := 0; f < frames; f++ {
				for k := 0; k < perOp; k++ {
					rec := Record{
						SwarmID: ci*1000 + f,
						PeerID:  uint64(k + 1),
						Seed:    k%2 == 0,
						Online:  true,
						Time:    float64(f) + float64(k)/float64(perOp),
					}
					if err := c.Observe(rec); err != nil {
						errs <- fmt.Errorf("client %d observe: %w", ci, err)
						return
					}
				}
			}
			if err := c.Close(); err != nil {
				errs <- fmt.Errorf("client %d close: %w", ci, err)
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.Flush()
	m := e.Metrics()
	if want := uint64(clients * frames * perOp); m.Records != want {
		t.Fatalf("applied %d records, want exactly %d (deduped %d)", m.Records, want, m.Deduped)
	}
	st := fn.Stats()
	t.Logf("faultnet: %d resets, %d dials denied; engine deduped %d replayed records",
		st.Resets, st.DialsDenied, m.Deduped)
}

// FuzzOpCodec holds the codec to two properties on arbitrary bytes:
// decoding never panics, and a frame that decodes is the one spelling
// of its ops — encoding them reproduces the input bytes, so nothing the
// decoder accepts is something the encoder refuses, and no overlong
// varint, unflagged repeat or misplaced wide peer gets through.
func FuzzOpCodec(f *testing.F) {
	recOps := []Op{
		EventOp(Record{SwarmID: 5, PeerID: 11, Seed: true, Online: true, Time: 3.5}),
		EventOp(Record{SwarmID: -1, PeerID: 0, Time: 0}),
	}
	metaOps := []Op{MetaOp(trace.SwarmMeta{ID: 9, Title: "m"}, 30)}
	censusOps := []Op{CensusOp(trace.Snapshot{Meta: trace.SwarmMeta{ID: 2}, Seeds: 1, Leechers: 4})}
	files := []trace.FileMeta{{Name: "01 – Ouverture.flac", SizeKB: 31744.25}, {Name: "02.flac", SizeKB: 0}, {Name: "", SizeKB: 1e300}}
	richOps := []Op{
		MetaOp(trace.SwarmMeta{ID: 12, Category: trace.Music, Title: "Бетховен — 交響曲第9番", GroupID: -4, CreatedDay: 187.25, Files: files}, 210),
		EventOp(Record{SwarmID: 12, PeerID: 25, Seed: true, Online: true, Time: 0.5}),
		CensusOp(trace.Snapshot{Meta: trace.SwarmMeta{ID: 12, Category: trace.Music, Title: "a\xffb", Files: files[:1]}, Seeds: 3, Leechers: 40, Downloads: 1 << 40}),
		MetaOp(trace.SwarmMeta{ID: 13, Files: []trace.FileMeta{}}, 1),
		MetaOp(trace.SwarmMeta{ID: 14, Files: nil}, 1),
	}
	for _, ops := range [][]Op{recOps, metaOps, censusOps, richOps} {
		plain, err := EncodeFrame(nil, "", 0, ops)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(plain)
		keyed, err := EncodeFrame(nil, "source-a", 42, ops)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(keyed)
	}
	// Non-finite floats: the decoder refuses them, so nothing the fuzzer
	// grows from these may decode into an op the encoder refuses. A lone
	// registration ends [last file's size][horizon]; its created day
	// sits behind the kind byte, id, category and group.
	events, err := EncodeFrame(nil, "source-a", 42, recOps)
	if err != nil {
		f.Fatal(err)
	}
	reg, err := EncodeFrame(nil, "source-a", 42, richOps[:1])
	if err != nil {
		f.Fatal(err)
	}
	createdDay := keyedHeaderSize("source-a") + opsHeaderSize + 1 + 24
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(withLastTime(events, bad))
		for _, off := range []int{createdDay, len(reg) - 16, len(reg) - 8} {
			frame := append([]byte{}, reg...)
			binary.LittleEndian.PutUint64(frame[off:], math.Float64bits(bad))
			f.Add(frame)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0})
	// The event op's second spellings, each refused, and the longest
	// varints an event carries cut at every byte: the fuzzer grows its
	// inputs from the edges of the canonical rules.
	for _, s := range secondSpellings() {
		f.Add(s.data)
	}
	for _, frame := range longVarintFrames(f) {
		f.Add(frame)
		for n := opsHeaderSize + 2; n < opsHeaderSize+1+10+8; n++ {
			f.Add(frame[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		source, seq, ops, err := DecodeFrame(data)
		if err != nil {
			return // rejected without panicking: all the contract asks
		}
		enc, err := EncodeFrame(nil, source, seq, ops)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("a frame that decodes has a second spelling:\n in  %x\n out %x", data, enc)
		}
	})
}
