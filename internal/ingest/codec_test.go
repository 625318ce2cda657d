package ingest

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// wireField is one field of a hand-written frame: the golden below is
// these bytes in order, and the fields marked count are the u32 lengths
// and counts a hostile peer could inflate.
type wireField struct {
	name  string
	bytes []byte
	count bool
}

// goldenOpsFrame pins the ops payload layout by its bytes, not by the
// functions that write them: one event, one registration (two files, a
// non-ASCII title), one census (negative id, nil file list).
var goldenOpsFrame = []wireField{
	{"version", []byte{3}, false},
	{"op count", []byte{3, 0, 0, 0}, true},

	{"event kind", []byte{0}, false},
	{"event swarm 7", []byte{7, 0, 0, 0, 0, 0, 0, 0}, false},
	{"event peer 15", []byte{15, 0, 0, 0, 0, 0, 0, 0}, false},
	{"event flags seed|online", []byte{3}, false},
	{"event time 0.25", []byte{0, 0, 0, 0, 0, 0, 0xd0, 0x3f}, false},

	{"meta kind", []byte{1}, false},
	{"meta id 7", []byte{7, 0, 0, 0, 0, 0, 0, 0}, false},
	{"meta category 1 (tv)", []byte{1, 0, 0, 0, 0, 0, 0, 0}, false},
	{"meta group 3", []byte{3, 0, 0, 0, 0, 0, 0, 0}, false},
	{"meta created day 12.5", []byte{0, 0, 0, 0, 0, 0, 0x29, 0x40}, false},
	{"meta title length", []byte{15, 0, 0, 0}, true},
	{"meta title", []byte("Friends \xe2\x80\x94 S01"), false},
	{"meta file count", []byte{2, 0, 0, 0}, true},
	{"file 0 name length", []byte{5, 0, 0, 0}, true},
	{"file 0 name", []byte("a.avi"), false},
	{"file 0 size 1024 KB", []byte{0, 0, 0, 0, 0, 0, 0x90, 0x40}, false},
	{"file 1 name length", []byte{0, 0, 0, 0}, true},
	{"file 1 size 0.5 KB", []byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f}, false},
	{"meta horizon 210 days", []byte{0, 0, 0, 0, 0, 0x40, 0x6a, 0x40}, false},

	{"census kind", []byte{2}, false},
	{"census id -1", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, false},
	{"census category 4 (other)", []byte{4, 0, 0, 0, 0, 0, 0, 0}, false},
	{"census group 0", []byte{0, 0, 0, 0, 0, 0, 0, 0}, false},
	{"census created day 0", []byte{0, 0, 0, 0, 0, 0, 0, 0}, false},
	{"census title length", []byte{0, 0, 0, 0}, true},
	{"census file count: nil list", []byte{0xff, 0xff, 0xff, 0xff}, false},
	{"census seeds 4", []byte{4, 0, 0, 0, 0, 0, 0, 0}, false},
	{"census leechers 19", []byte{19, 0, 0, 0, 0, 0, 0, 0}, false},
	{"census downloads 2301", []byte{0xfd, 0x08, 0, 0, 0, 0, 0, 0}, false},
}

var goldenOps = []Op{
	EventOp(Record{SwarmID: 7, PeerID: 15, Seed: true, Online: true, Time: 0.25}),
	MetaOp(trace.SwarmMeta{
		ID: 7, Category: trace.TV, GroupID: 3, CreatedDay: 12.5, Title: "Friends — S01",
		Files: []trace.FileMeta{{Name: "a.avi", SizeKB: 1024}, {Name: "", SizeKB: 0.5}},
	}, 210),
	CensusOp(trace.Snapshot{Meta: trace.SwarmMeta{ID: -1, Category: trace.Other}, Seeds: 4, Leechers: 19, Downloads: 2301}),
}

// auxFloat reports whether the field is one of the floats an aux op
// carries: a created day, a file size or the horizon.
func (f wireField) auxFloat() bool {
	return strings.Contains(f.name, "created day") || strings.Contains(f.name, "size") || strings.Contains(f.name, "horizon")
}

func goldenFrameBytes() []byte {
	var frame []byte
	for _, f := range goldenOpsFrame {
		frame = append(frame, f.bytes...)
	}
	return frame
}

// opsEqual compares decoded ops field by field (Op holds a pointer).
func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].rec != b[i].rec || !reflect.DeepEqual(a[i].aux, b[i].aux) {
			return false
		}
	}
	return true
}

// TestOpsCodecLayoutGolden: the hand-written bytes decode to the ops
// they spell and those ops encode to the bytes, plain and keyed.
func TestOpsCodecLayoutGolden(t *testing.T) {
	frame := goldenFrameBytes()
	got, err := decodeOps(frame)
	if err != nil {
		t.Fatalf("golden frame refused: %v", err)
	}
	if !opsEqual(got, goldenOps) {
		t.Fatalf("golden frame decoded to\n %+v\nwant\n %+v", got, goldenOps)
	}
	enc, err := encodeOps(nil, goldenOps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, frame) {
		t.Fatalf("ops encode to\n %x\nthe layout says\n %x", enc, frame)
	}

	keyed := append([]byte{2, 3, 0, 's', 'r', 'c', 42, 0, 0, 0, 0, 0, 0, 0}, frame...)
	source, seq, got, err := DecodeFrame(keyed)
	if err != nil || source != "src" || seq != 42 || !opsEqual(got, goldenOps) {
		t.Fatalf("keyed golden decoded as (%q, %d, %d ops, %v)", source, seq, len(got), err)
	}
	if enc, err = EncodeFrame(nil, "src", 42, goldenOps); err != nil || !bytes.Equal(enc, keyed) {
		t.Fatalf("keyed ops encode to\n %x (%v)\nthe layout says\n %x", enc, err, keyed)
	}
}

// TestOpsCodecNilAndEmptyFiles: a checkpoint renders a nil file list
// and an empty one differently, so each survives the codec as itself.
func TestOpsCodecNilAndEmptyFiles(t *testing.T) {
	for _, files := range [][]trace.FileMeta{nil, {}} {
		frame, err := encodeOps(nil, []Op{MetaOp(trace.SwarmMeta{ID: 1, Files: files}, 1)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeOps(frame)
		if err != nil {
			t.Fatal(err)
		}
		if back := got[0].aux.meta.Files; (back == nil) != (files == nil) || len(back) != 0 {
			t.Errorf("Files %#v came back as %#v", files, back)
		}
	}
}

// TestOpsCodecCoercesInvalidUTF8: the encoder writes what json.Marshal
// would have (each invalid byte becomes U+FFFD, so a later checkpoint
// changes nothing), and the decoder refuses the raw bytes.
func TestOpsCodecCoercesInvalidUTF8(t *testing.T) {
	const raw, coerced = "a\xff\xfeb\xe2\x80", "a��b��"
	frame, err := encodeOps(nil, []Op{MetaOp(trace.SwarmMeta{Title: raw, Files: []trace.FileMeta{{Name: raw}}}, 1)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeOps(frame)
	if err != nil {
		t.Fatal(err)
	}
	if m := got[0].aux.meta; m.Title != coerced || m.Files[0].Name != coerced {
		t.Fatalf("title %q, file name %q; want both %q", m.Title, m.Files[0].Name, coerced)
	}
	// The same op as an encoder without the coercion would send it.
	at := bytes.Index(frame, []byte(coerced))
	bad := append(append(append([]byte{}, frame[:at-4]...), byte(len(raw)), 0, 0, 0), raw...)
	bad = append(bad, frame[at+len(coerced):]...)
	if _, err := decodeOps(bad); err == nil || !strings.Contains(err.Error(), "UTF-8") {
		t.Fatalf("a title that is not UTF-8 decoded: %v", err)
	}
}

// decodeBounded decodes data and fails the test if doing so allocated
// far beyond the frame: a length or count field the bytes present do
// not back must be refused before anything is sized from it.
func decodeBounded(t *testing.T, what string, data []byte) error {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeOps(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("%s: decoding a %d-byte frame allocated %d bytes", what, len(data), grew)
	}
	return err
}

// TestDecodeOpsAuxTruncatedOrInflated: the golden frame cut at every
// byte, and with every length and count field inflated, is refused
// without a panic and without an allocation sized from the lie.
func TestDecodeOpsAuxTruncatedOrInflated(t *testing.T) {
	frame := goldenFrameBytes()
	for n := 0; n < len(frame); n++ {
		if err := decodeBounded(t, "truncated", frame[:n]); err == nil {
			t.Errorf("frame cut to %d of %d bytes decoded", n, len(frame))
		}
	}
	off := 0
	for _, f := range goldenOpsFrame {
		if f.count {
			cur := binary.LittleEndian.Uint32(f.bytes)
			for _, v := range []uint32{cur + 1, cur + 12, 0x7fffffff, 0xfffffffe, 0xffffffff} {
				bad := append([]byte{}, frame...)
				binary.LittleEndian.PutUint32(bad[off:], v)
				if err := decodeBounded(t, f.name, bad); err == nil {
					t.Errorf("%s = %d (was %d) decoded", f.name, v, cur)
				}
			}
		}
		off += len(f.bytes)
	}
}

// TestDecodeOpsRefusesNonFiniteAux: NaN and ±Inf in a created day, a
// file size or the horizon are refused by the decoder and by the
// encoder, as in an event time — a checkpoint could not encode them.
func TestDecodeOpsRefusesNonFiniteAux(t *testing.T) {
	frame := goldenFrameBytes()
	off := 0
	for _, f := range goldenOpsFrame {
		if f.auxFloat() {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				bad := append([]byte{}, frame...)
				binary.LittleEndian.PutUint64(bad[off:], math.Float64bits(v))
				if _, err := decodeOps(bad); err == nil || !strings.Contains(err.Error(), "non-finite") {
					t.Errorf("%s = %v: %v", f.name, v, err)
				}
			}
		}
		off += len(f.bytes)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, op := range map[string]Op{
			"horizon":     MetaOp(trace.SwarmMeta{ID: 1}, v),
			"created day": MetaOp(trace.SwarmMeta{ID: 1, CreatedDay: v}, 1),
			"file size":   MetaOp(trace.SwarmMeta{ID: 1, Files: []trace.FileMeta{{Name: "f", SizeKB: v}}}, 1),
			"census size": CensusOp(trace.Snapshot{Meta: trace.SwarmMeta{ID: 1, Files: []trace.FileMeta{{Name: "f", SizeKB: v}}}}),
		} {
			if _, err := encodeOps(nil, []Op{op}); err == nil {
				t.Errorf("%s %v encoded", name, v)
			}
		}
	}
}

// readV1Fixture returns the frames of testdata/ops_codec_v1.bin: an
// event batch, a registration and a census, each plain and keyed,
// written by the encoder of the commit before the aux payload went
// binary (ops codec version 1, JSON aux).
func readV1Fixture(t *testing.T) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "ops_codec_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var frames [][]byte
	fr := wal.NewFrameReader(bufio.NewReader(f))
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, append([]byte{}, payload...))
	}
	if len(frames) != 6 {
		t.Fatalf("fixture holds %d frames, want 6", len(frames))
	}
	return frames
}

// TestOpsCodecForeignVersionRefused: a frame another build wrote is
// refused by version, by name, on every surface — DecodeFrame, a
// stream (ERR codec), and recovery, which fails the boot and leaves the
// journal byte for byte as it found it. Cutting the log there, as
// recovery does at a frame no build can read, deleted acknowledged
// records.
func TestOpsCodecForeignVersionRefused(t *testing.T) {
	frames := readV1Fixture(t)
	for i, frame := range frames {
		if _, _, _, err := DecodeFrame(frame); !errors.Is(err, errCodecVersion) {
			t.Errorf("fixture frame %d: DecodeFrame error %v, want the codec version refusal", i, err)
		}
	}

	e := New(Config{Shards: 1})
	defer e.Close()
	addr := startStreamServer(t, e)
	for i, frame := range frames {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wal.AppendFrame(nil, append([]byte{StreamFrameData}, frame...))); err != nil {
			t.Fatal(err)
		}
		reply, err := wal.NewFrameReader(bufio.NewReader(conn)).Next()
		conn.Close()
		if err != nil || len(reply) < 2 || reply[0] != StreamFrameErr || reply[1] != StreamErrCodec ||
			!strings.Contains(string(reply[2:]), errCodecVersion.Error()) {
			t.Errorf("fixture frame %d over a stream: reply %q, err %v; want ERR codec naming the version", i, reply, err)
		}
	}
	if m := e.Metrics(); m.Records != 0 {
		t.Errorf("%d records applied from refused frames", m.Records)
	}

	// A data dir as a SIGKILLed node of that build leaves it: this
	// build's frame, then the foreign ones, no checkpoint.
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ours, err := EncodeFrame(nil, "mon", 1, mkEventOps(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(append([][]byte{ours}, frames...)...); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirDigest(t, dir)
	for boot := 0; boot < 2; boot++ {
		e, rs, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
		if err == nil {
			e.Close()
			t.Fatalf("boot %d: recovery served a journal holding another build's frames: %+v", boot, rs)
		}
		if !errors.Is(err, errCodecVersion) || rs.BadFrameSeq != 0 {
			t.Fatalf("boot %d: error %v (bad frame seq %d), want the codec version refusal and no cut", boot, err, rs.BadFrameSeq)
		}
		if after := dirDigest(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("boot %d: the refused boot changed the data dir:\n before %v\n after  %v", boot, before, after)
		}
	}
}

// dirDigest is a data dir's files by name, each as its size and hash.
func dirDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = fmt.Sprintf("%d bytes, sha256 %x", len(data), sha256.Sum256(data))
	}
	return files
}

// TestStreamClientRefusesBadOpAlone: an op the codec cannot carry is
// refused by Put, alone — the ops batched around it are delivered and
// acknowledged. Refused only when the frame was encoded, it stayed in
// the batch and failed every later Put and Flush of the client.
func TestStreamClientRefusesBadOpAlone(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()
	c := NewStreamClient(StreamClientConfig{Addr: startStreamServer(t, e), BatchSize: 4})
	good := func(i int) Op {
		return EventOp(Record{SwarmID: 1, PeerID: uint64(i), Seed: true, Online: true, Time: float64(i)})
	}
	bad := []Op{
		EventOp(Record{SwarmID: 1, PeerID: 9, Time: math.NaN()}),
		MetaOp(trace.SwarmMeta{ID: 1, Files: []trace.FileMeta{{Name: "f", SizeKB: math.NaN()}}}, 30),
		MetaOp(trace.SwarmMeta{ID: 1}, math.Inf(1)),
	}
	for i := 0; i < 6; i++ {
		if i%2 == 1 {
			if err := c.Put(bad[i/2]); err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("bad op %d: Put returned %v", i/2, err)
			}
		}
		if err := c.Put(good(i)); err != nil {
			t.Fatalf("good op %d after a refused one: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush after refused ops: %v", err)
	}
	if c.Sent() == 0 || c.Acked() != c.Sent() {
		t.Fatalf("sent %d frames, %d acknowledged", c.Sent(), c.Acked())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if st, ok := e.Swarm(1); !ok || st.Events != 6 || st.Registered {
		t.Fatalf("swarm 1 = %+v (known=%v), want the six good events and no registration", st, ok)
	}
}

// TestAcceptedAuxFrameKeepsCheckpointing is bug thirteen's property for
// the aux payload: whatever the decoder accepts, a durable engine can
// journal, apply and still checkpoint (a checkpoint JSON-encodes the
// registration, so one NaN let through fails every later Checkpoint,
// and the journaled frame brings it back on every restart) — and
// whatever it refuses never reaches the journal. The golden frame's
// created days, file sizes and horizon are redrawn from the extremes of
// float64, finite and not; its one event keeps its time (the event
// layout's own test is TestDurableRefusesNonFiniteTime).
func TestAcceptedAuxFrameKeepsCheckpointing(t *testing.T) {
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pool := []float64{
		0, math.Copysign(0, -1), 1.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff0000000000001),
	}
	rng := rand.New(rand.NewSource(24))
	var accepted, refused int
	for round := 0; round < 200; round++ {
		var frame []byte
		for _, f := range goldenOpsFrame {
			if f.auxFloat() {
				frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(pool[rng.Intn(len(pool))]))
			} else {
				frame = append(frame, f.bytes...)
			}
		}
		seq := e.WAL().LastSeq()
		if _, _, _, derr := DecodeFrame(frame); derr != nil {
			refused++
			if _, err := e.SubmitFrame(frame); err == nil {
				t.Fatalf("round %d: the engine accepted a frame DecodeFrame refuses (%v)", round, derr)
			}
			if got := e.WAL().LastSeq(); got != seq {
				t.Fatalf("round %d: a refused frame moved the journal from seq %d to %d", round, seq, got)
			}
			continue
		}
		accepted++
		if _, err := e.SubmitFrame(frame); err != nil {
			t.Fatalf("round %d: the engine refused a frame DecodeFrame accepts: %v", round, err)
		}
		if cs, err := e.Checkpoint(); err != nil || cs.Skipped {
			t.Fatalf("round %d: checkpoint after an accepted frame: %+v, %v", round, cs, err)
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("%d frames accepted, %d refused: the draw exercises one side only", accepted, refused)
	}
}
