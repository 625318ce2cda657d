package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"strings"
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
	addr, stop := serveStream(t, e)
	t.Cleanup(stop)
	return addr
}

// serveStream serves the binary streaming protocol for e on a loopback
// listener until stop is called.
func serveStream(t testing.TB, e *Engine) (addr string, stop func()) {
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
	return ln.Addr().String(), func() {
		ln.Close()
		ss.Close()
		<-done
	}
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
	if got, want := c.Acked(), uint64((len(ops)+96)/97); got != want {
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
	if b, j := series(binE, "ingest_records_total"), series(jsonE, "ingest_records_total"); b != j {
		t.Fatalf("record counts diverged: binary %d, json %d", b, j)
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
		if _, err := c1.PushFrame(mustEncodeFrame(t, "mon-replay", seq, ops)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	records := func() uint64 { return series(e, "ingest_records_total") }
	deduped := func() uint64 { return series(e, "ingest_deduped_total") }
	baseRecords, baseDeduped := records(), deduped()
	if want := uint64(5 * len(ops)); baseRecords != want {
		t.Fatalf("applied %d records, want %d", baseRecords, want)
	}

	// The reconnect-shaped replay: same source, frames 2..4 again.
	c2 := NewStreamClient(StreamClientConfig{Addr: addr, Source: "mon-replay"})
	for seq := uint64(2); seq <= 4; seq++ {
		if _, err := c2.PushFrame(mustEncodeFrame(t, "mon-replay", seq, ops)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	mRecords, mDeduped := records(), deduped()
	if mRecords != baseRecords {
		t.Fatalf("replay re-applied: records %d -> %d", baseRecords, mRecords)
	}
	if want := baseDeduped + uint64(3*len(ops)); mDeduped != want {
		t.Fatalf("deduped %d, want %d", mDeduped, want)
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
	burstRecords, burstDeduped := records(), deduped()
	if want := mRecords + uint64(2*len(ops)); burstRecords != want {
		t.Fatalf("burst with a repeated key applied %d records, want %d", burstRecords-mRecords, 2*len(ops))
	}
	if want := mDeduped + uint64(len(ops)); burstDeduped != want {
		t.Fatalf("burst with a repeated key deduplicated %d ops, want one batch of %d", burstDeduped-mDeduped, len(ops))
	}
}

// TestStreamCrossedSourcesDoNotDeadlock is the deadlock proof for
// multi-source groups: two connections pipeline frames carrying the
// same two sources in opposite orders, without pausing for acks, so
// each server connection always has a backlog and every commit group
// needs both source windows. The windows are judged under the engine's
// one commit lock, so both streams finish; per-window locks taken in
// arrival order would deadlock (each connection holding one window and
// waiting for the other) and the deadline would fail the test. Run
// under -race in CI.
func TestStreamCrossedSourcesDoNotDeadlock(t *testing.T) {
	// Durable with fsync on: the lock is held across a real fsync, so
	// the two connections contend for it on every group.
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
	if got, want := series(e, "ingest_records_total"), uint64(2*frames*len(ops)); got != want {
		t.Fatalf("applied %d records, want %d (deduped %d)", got, want, series(e, "ingest_deduped_total"))
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
				Dial: func(context.Context) (net.Conn, error) {
					return fn.Dial("tcp", ln.Addr().String(), time.Second)
				},
				BatchSize: perOp,
				Window:    8,
				RetryFor:  time.Minute,
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
	records, deduped := series(e, "ingest_records_total"), series(e, "ingest_deduped_total")
	if want := uint64(clients * frames * perOp); records != want {
		t.Fatalf("applied %d records, want exactly %d (deduped %d)", records, want, deduped)
	}
	st := fn.Stats()
	t.Logf("faultnet: %d resets, %d dials denied; engine deduped %d replayed records",
		st.Resets, st.DialsDenied, deduped)
}

// TestStreamClientFrozenUpstream: an upstream that accepts and then
// neither reads, answers nor closes — a stopped process — costs a sender
// its retry budget, not forever. The connection that acknowledges nothing
// for RetryFor is dropped, the redial path finds the budget spent, and
// Flush reports it within RetryFor plus one redial gap.
func TestStreamClientFrozenUpstream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn) // held open, never read
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
	})

	const retryFor = 300 * time.Millisecond
	c := NewStreamClient(StreamClientConfig{Addr: ln.Addr().String(), RetryFor: retryFor})
	defer c.Abandon()
	if err := c.Observe(Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true, Time: 1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- c.Flush() }()
	select {
	case err := <-done:
		took := time.Since(start)
		if err == nil {
			t.Fatal("Flush against a frozen upstream returned nil")
		}
		t.Logf("Flush: %v after %v", err, took)
		if limit := retryFor + retryBase<<5; took < retryFor || took > limit {
			t.Fatalf("Flush gave up after %v, want between RetryFor (%v) and %v", took, retryFor, limit)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush against a frozen upstream still waiting after 10s")
	}
}

// TestStreamClientRefusesOversizeReply: a reply header that claims more
// than any server sends (here the 64 MiB the journal's frame bound
// allows) drops the connection at once, and the unacked frame is resent
// on a new one, well inside RetryFor.
func TestStreamClientRefusesOversizeReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	lied := make(chan time.Time, 1)
	redialed := make(chan time.Time, 1)
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			if n > 0 {
				select {
				case redialed <- time.Now():
				default: // only the first redial is timed
				}
			}
			go func(first bool) {
				fr := wal.NewFrameReader(conn)
				var acked uint64
				for {
					payload, err := fr.Next()
					if err != nil || payload[0] != StreamFrameData {
						return
					}
					if first {
						var hdr [wal.FrameHeaderSize]byte
						binary.LittleEndian.PutUint32(hdr[:], wal.MaxFrameBytes)
						_, _ = conn.Write(hdr[:])
						lied <- time.Now()
						return // held open, never written to again
					}
					acked++
					var ack [9]byte
					ack[0] = StreamFrameAck
					binary.LittleEndian.PutUint64(ack[1:], acked)
					if _, err := conn.Write(wal.AppendFrame(nil, ack[:])); err != nil {
						return
					}
				}
			}(n == 0)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
	})

	c := NewStreamClient(StreamClientConfig{Addr: ln.Addr().String(), RetryFor: 10 * time.Second})
	defer c.Abandon()
	if err := c.Observe(Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true, Time: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Flush() }()
	sent := <-lied
	select {
	case at := <-redialed:
		if took := at.Sub(sent); took > time.Second {
			t.Fatalf("redialed %v after the oversize reply header, want within 1s", took)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no redial 3s after a reply header claiming 64 MiB")
	}
	if err := <-done; err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := c.Acked(); got != 1 {
		t.Fatalf("acked %d frames, want 1", got)
	}
}

// TestStreamRidesOutCheckpoint: a node whose commit waits on the commit
// lock — held here, as a checkpoint's capture holds it, for more than
// twice the sender's RetryFor — is waiting, not stopped. Its session
// repeats the last ACK meanwhile, so the sender keeps its one connection
// and the send lands once the lock is released.
func TestStreamRidesOutCheckpoint(t *testing.T) {
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamServer(e, nil)
	ss.keepalive = 50 * time.Millisecond
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ss.Serve(ln)
	}()
	defer func() {
		ln.Close()
		ss.Close()
		<-done
	}()

	const retryFor = 300 * time.Millisecond
	c := NewStreamClient(StreamClientConfig{Addr: ln.Addr().String(), Source: "mon", RetryFor: retryFor})
	defer c.Abandon()
	send := func(t float64) error {
		if err := c.Observe(Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true, Time: t}); err != nil {
			return err
		}
		return c.Flush()
	}
	if err := send(1); err != nil {
		t.Fatal(err)
	}

	const hold = 4 * retryFor
	e.commitMu.Lock()
	flushed := make(chan error, 1)
	go func() { flushed <- send(2) }()
	select {
	case err := <-flushed:
		e.commitMu.Unlock()
		t.Fatalf("Flush returned %v with the commit lock still held", err)
	case <-time.After(hold):
	}
	e.commitMu.Unlock()
	if err := <-flushed; err != nil {
		t.Fatalf("Flush through a %v checkpoint: %v", hold, err)
	}
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("the sender reconnected %d times", n)
	}
	if got := series(e, "ingest_records_total"); got != 2 {
		t.Fatalf("applied %d records, want 2", got)
	}
}

// TestStreamJournalFailureIsNotACodecVerdict: a node whose journal fails
// an append (here its log is closed under the engine, as a full disk or
// an I/O error fails a write) refuses the write, not the frame: it
// answers ERR state, so the sender keeps its window and redials instead
// of failing for good, and the frame lands once the journal takes
// appends again.
func TestStreamJournalFailureIsNotACodecVerdict(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	addr, stop := serveStream(t, e)
	defer stop()

	e.commitMu.Lock()
	e.journal.log.Close()
	e.commitMu.Unlock()
	redialed := make(chan struct{}, 1)
	c := NewStreamClient(StreamClientConfig{Addr: addr, Source: "mon", RetryFor: 30 * time.Second, Logf: func(format string, args ...any) {
		if strings.HasPrefix(format, "ingest stream: reconnected") {
			select {
			case redialed <- struct{}{}:
			default:
			}
		}
	}})
	defer c.Abandon()
	rec := Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true, Time: 1}
	if err := c.Observe(rec); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush() }()
	select {
	case <-redialed: // refused at least once, and resending
	case err := <-flushed:
		t.Fatalf("flush against a failing journal ended with %v, want it to keep resending", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the client never redialed after the refusal")
	}

	e.commitMu.Lock()
	log, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err == nil {
		e.journal.log = log
	}
	e.commitMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatalf("flush once the journal recovered: %v", err)
	}
	var frames int
	if err := log.Replay(1, func(uint64, []byte) error { frames++; return nil }); err != nil {
		t.Fatal(err)
	}
	if e.Flush(); frames != 1 || e.Summary().Events != 1 {
		t.Fatalf("journal holds %d frames and the engine %d events, want the one frame applied once", frames, e.Summary().Events)
	}
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

// widestEvents returns n events at the codec's widest encoding,
// eventWireMax bytes each: two swarms past 2^62 in turn (so no event
// repeats the previous swarm), peers past widePeerMin and a new time
// each.
func widestEvents(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = EventOp(Record{SwarmID: 1<<62 + i%2, PeerID: widePeerMin + uint64(i%2), Online: i/2%2 == 0, Time: float64(i)})
	}
	return ops
}

// TestStreamFrameHoldsWidestBatch: a batch of MaxFrameOps events at the
// widest encoding is one a node's SubmitKeyed journals, so the stream
// must carry it as one frame: MaxStreamFrame comes from the codec. At a
// fixed 8 MiB the server refused the 8.6 MB frame on every redial and
// Flush failed once the whole RetryFor had passed.
func TestStreamFrameHoldsWidestBatch(t *testing.T) {
	ops := widestEvents(MaxFrameOps)
	e := New(Config{Shards: 2})
	defer e.Close()
	c := NewStreamClient(StreamClientConfig{Addr: startStreamServer(t, e), BatchSize: MaxFrameOps, RetryFor: 2 * time.Second})
	defer c.Abandon()
	frame := mustEncodeFrame(t, c.Source(), 1, ops)
	if size := 1 + len(frame); size <= 8<<20 || size > MaxStreamFrame {
		t.Fatalf("the widest frame is %d bytes: want it past 8 MiB and within MaxStreamFrame (%d)", size, MaxStreamFrame)
	}
	for _, op := range ops {
		if err := c.Put(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush of one widest batch: %v", err)
	}
	if got := series(e, "ingest_records_total"); got != MaxFrameOps {
		t.Fatalf("the node applied %d of %d records", got, MaxFrameOps)
	}
}

// TestStreamClientPushFrameManyProducers: producers sharing one client
// each push keyed frames and wait for the watermark PushFrame returned —
// their own frame's — over a window small enough that they block on each
// other; the node applies every frame exactly once.
func TestStreamClientPushFrameManyProducers(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()
	c := NewStreamClient(StreamClientConfig{Addr: startStreamServer(t, e), Window: 4})
	defer c.Abandon()
	const producers, frames = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			source := fmt.Sprintf("producer-%d", p)
			for seq := uint64(1); seq <= frames; seq++ {
				frame, err := EncodeFrame(nil, source, seq, []Op{EventOp(Record{SwarmID: p, PeerID: seq, Online: true, Time: float64(seq)})})
				if err != nil {
					errs <- err
					return
				}
				mark, err := c.PushFrame(frame)
				if err == nil {
					err = c.WaitAcked(mark)
				}
				if err == nil && c.Acked() < mark {
					err = fmt.Errorf("WaitAcked(%d) returned at %d acknowledged", mark, c.Acked())
				}
				if err != nil {
					errs <- fmt.Errorf("%s seq %d: %w", source, seq, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := series(e, "ingest_records_total"), uint64(producers*frames); got != want {
		t.Fatalf("the node applied %d records, want %d", got, want)
	}
	if got := series(e, "ingest_deduped_total"); got != 0 {
		t.Fatalf("the node deduplicated %d records: a frame went twice", got)
	}
	if got := c.Acked(); got != producers*frames {
		t.Fatalf("%d frames acknowledged, want %d", got, producers*frames)
	}
}
