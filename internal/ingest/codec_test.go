package ingest

import (
	"bufio"
	"bytes"
	"cmp"
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
	"slices"
	"strings"
	"testing"
	"unsafe"

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
// functions that write them: three events (every header bit, both peer
// forms, a negative swarm), one registration (two files, a non-ASCII
// title), one census (negative id, nil file list).
var goldenOpsFrame = []wireField{
	{"version", []byte{4}, false},
	{"op count", []byte{5, 0, 0, 0}, true},

	{"event 0 header: seed|online", []byte{0x0c}, false},
	{"event 0 swarm 7 (zigzag 14)", []byte{14}, false},
	{"event 0 peer 15", []byte{15}, false},
	{"event 0 time 0.25", []byte{0, 0, 0, 0, 0, 0, 0xd0, 0x3f}, false},

	{"event 1 header: same swarm|same time|wide peer", []byte{0x70}, false},
	{"event 1 peer 2^63+1", []byte{1, 0, 0, 0, 0, 0, 0, 0x80}, false},

	{"event 2 header: seed", []byte{0x04}, false},
	{"event 2 swarm -3 (zigzag 5)", []byte{5}, false},
	{"event 2 peer 300", []byte{0xac, 0x02}, false},
	{"event 2 time 0.5", []byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f}, false},

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
	EventOp(Record{SwarmID: 7, PeerID: 1<<63 + 1, Time: 0.25}),
	EventOp(Record{SwarmID: -3, PeerID: 300, Seed: true, Time: 0.5}),
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

// rawEvents is an ops payload of hand-written event ops, one slice of
// bytes per op.
func rawEvents(evs ...[]byte) []byte {
	p := binary.LittleEndian.AppendUint32([]byte{opsCodecVersion}, uint32(len(evs)))
	for _, ev := range evs {
		p = append(p, ev...)
	}
	return p
}

// namedFrame is a test payload and what it is.
type namedFrame struct {
	name string
	data []byte
}

// secondSpellings are event payloads the encoder never writes, each
// breaking one rule that makes the layout the one spelling of its ops.
// Header 0x00 is a leecher going offline with every field written; the
// time is 1.0 unless the name says otherwise.
func secondSpellings() []namedFrame {
	t1 := []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}
	ev := func(head ...byte) []byte { return append(head, t1...) }
	return []namedFrame{
		{"overlong swarm varint", rawEvents(ev(0x00, 0x82, 0x00, 0x01))},
		{"overlong peer varint", rawEvents(ev(0x00, 0x02, 0x81, 0x00))},
		{"overlong zero peer", rawEvents(ev(0x00, 0x02, 0x80, 0x00))},
		{"swarm varint overflows", rawEvents(ev(0x00, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x01))},
		{"swarm varint of 11 bytes", rawEvents(ev(0x00, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00, 0x01))},
		{"first swarm 0 written", rawEvents(ev(0x00, 0x00, 0x01))},
		{"swarm repeat written", rawEvents(ev(0x00, 0x02, 0x01), []byte{evSameTime, 0x02, 0x02})},
		{"first time 0 written", rawEvents([]byte{0x00, 0x02, 0x01, 0, 0, 0, 0, 0, 0, 0, 0})},
		{"time repeat written", rawEvents(ev(0x00, 0x02, 0x01), ev(evSameSwarm, 0x02))},
		{"wide peer below 2^56", rawEvents(ev(evWidePeer, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00))},
		{"peer varint of 2^56", rawEvents(ev(0x00, 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))},
		{"header bit 7", rawEvents(ev(0x80, 0x02, 0x01))},
		{"header bit 7, every flag", rawEvents(ev(0xfc, 0x01))},
		{"kind 3 with event bits", rawEvents(ev(0x07, 0x02, 0x01))},
		{"registration kind, flagged", rawEvents(ev(byte(opMeta)|evSameSwarm, 0x02, 0x01))},
	}
}

// TestDecodeOpsRefusesSecondSpellings: every second spelling of an event
// is refused — so a frame that decodes re-encodes to its own bytes, the
// property FuzzOpCodec searches for — and so is a payload cut anywhere
// inside the longest varints an event carries.
func TestDecodeOpsRefusesSecondSpellings(t *testing.T) {
	for _, f := range secondSpellings() {
		if ops, err := decodeOps(f.data); err == nil {
			t.Errorf("%s: decoded to %+v", f.name, ops)
		}
	}
	for _, frame := range longVarintFrames(t) {
		for n := opsHeaderSize; n < len(frame); n++ {
			if _, err := decodeOps(frame[:n]); err == nil {
				t.Errorf("%x cut to %d bytes decoded", frame, n)
			}
		}
	}
}

// longVarintFrames are valid payloads whose one event carries a 10-byte
// swarm varint and an 8-byte peer varint, the longest each may be.
func longVarintFrames(t testing.TB) [][]byte {
	var frames [][]byte
	for _, swarm := range []int{math.MinInt64, math.MaxInt64} {
		frame, err := encodeOps(nil, []Op{EventOp(Record{SwarmID: swarm, PeerID: widePeerMin - 1, Time: 1})})
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != opsHeaderSize+1+10+8+8 {
			t.Fatalf("swarm %d encodes to %d bytes: %x", swarm, len(frame), frame)
		}
		frames = append(frames, frame)
	}
	return frames
}

// TestDecodeOpsBoundsOpCount: an event can be two bytes, so a frame's
// size no longer bounds the ops it decodes into; MaxFrameOps does, on
// both sides of the codec. A MaxStreamFrame of two-byte events is
// refused before anything is sized from its count, a frame at the bound
// decodes into no more than MaxFrameOps ops, and the encoder refuses
// one op more.
func TestDecodeOpsBoundsOpCount(t *testing.T) {
	allRepeat := func(n int) []byte {
		p := binary.LittleEndian.AppendUint32([]byte{opsCodecVersion}, uint32(n))
		for i := 0; i < n; i++ { // swarm 0, peer 1, time 0: the header says it all
			p = append(p, evSameSwarm|evSameTime, 1)
		}
		return p
	}
	full := allRepeat((MaxStreamFrame - opsHeaderSize) / eventWireMin)
	if err := decodeBounded(t, "MaxStreamFrame of 2-byte events", full); err == nil {
		t.Fatalf("a %d-byte frame of %d ops decoded", len(full), (len(full)-opsHeaderSize)/2)
	}

	atBound := allRepeat(MaxFrameOps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops, err := decodeOps(atBound)
	runtime.ReadMemStats(&after)
	if err != nil || len(ops) != MaxFrameOps {
		t.Fatalf("a frame of %d ops: %d decoded, %v", MaxFrameOps, len(ops), err)
	}
	bound := uint64(MaxFrameOps)*uint64(unsafe.Sizeof(Op{})) + 1<<20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Errorf("decoding %d ops allocated %d bytes, bound %d", MaxFrameOps, grew, bound)
	}
	t.Logf("%d two-byte ops: a %d-byte frame, %d bytes decoded", MaxFrameOps, len(atBound), after.TotalAlloc-before.TotalAlloc)

	binary.LittleEndian.PutUint32(atBound[1:], MaxFrameOps+1)
	if err := decodeBounded(t, "count past the bound", append(atBound, evSameSwarm|evSameTime, 1)); err == nil {
		t.Error("a frame of MaxFrameOps+1 ops decoded")
	}
	if _, err := encodeOps(nil, make([]Op, MaxFrameOps+1)); err == nil {
		t.Error("the encoder wrote MaxFrameOps+1 ops")
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

// readCodecFixture returns the frames of a foreign-version fixture: an
// event batch, a registration and a census, each plain and keyed.
// testdata/ops_codec_v1.bin was written by the encoder of the commit
// before the aux payload went binary (ops codec version 1, JSON aux),
// testdata/ops_codec_v3.bin by the one before the compact event op
// (version 3, 26-byte fixed-width events).
func readCodecFixture(t *testing.T, name string) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
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
	for _, name := range []string{"ops_codec_v1.bin", "ops_codec_v3.bin"} {
		t.Run(name, func(t *testing.T) { foreignVersionRefused(t, readCodecFixture(t, name)) })
	}
}

func foreignVersionRefused(t *testing.T, frames [][]byte) {
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
	if n := series(e, "ingest_records_total"); n != 0 {
		t.Errorf("%d records applied from refused frames", n)
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
	if c.Acked() != 2 { // six good ops in batches of four
		t.Fatalf("sent 2 frames, %d acknowledged", c.Acked())
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
// float64, finite and not; its events keep their times (the event
// layout's own tests are TestDurableRefusesNonFiniteTime and
// TestEventTimeBounded).
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

// journaledBytesPerOp is what a fresh durable engine journals per op
// while feed drives it: wal_appended_bytes_total over wal_appended_total,
// so the frames' headers count and only the WAL envelope does not.
func journaledBytesPerOp(t *testing.T, feed func(e *Engine)) (perOp float64, ops uint64) {
	t.Helper()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	feed(e)
	reg := e.Registry()
	ops = reg.Counter("wal_appended_total").Value()
	return float64(reg.Counter("wal_appended_bytes_total").Value()) / float64(ops), ops
}

// streamOps sends ops into e down one StreamClient, as a monitor does.
func streamOps(t *testing.T, e *Engine, ops []Op) {
	t.Helper()
	c := NewStreamClient(StreamClientConfig{Addr: startStreamServer(t, e)})
	for _, op := range ops {
		if err := c.Put(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// fleetOps is one bt mon monitor's stream: ProbeDiff rounds five minutes
// apart over one swarm, peers keyed by ObservationKey, a tenth of them
// arriving or leaving each round and a few leechers completing.
func fleetOps(rounds, pool int) []Op {
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, pool)
	for p := range keys {
		keys[p] = ObservationKey(fmt.Sprintf("10.%d.%d.%d:6881", p>>16&255, p>>8&255, p&255))
	}
	present, seed := make([]bool, pool), make([]bool, pool)
	d := NewProbeDiff(4242)
	var ops []Op
	day := func(r int) float64 { return 3.5 + float64(r)*5/1440 }
	for r := 0; r < rounds; r++ {
		var obs []PeerObservation
		for p := range keys {
			if rng.Float64() < 0.1 {
				present[p] = !present[p]
			}
			if present[p] && rng.Float64() < 0.02 {
				seed[p] = true
			}
			if present[p] {
				obs = append(obs, PeerObservation{Key: keys[p], Seed: seed[p]})
			}
		}
		ops = append(ops, d.Ops(day(r), obs)...)
	}
	return append(ops, d.Close(day(rounds))...)
}

// tailOps is the benchmark's live tail: Zipf(1.2) swarms over 66 000,
// peers below 2 000 (even ids), each record toggling its peer, event
// time rising by 1e-6 day a record.
func tailOps(n int) []Op {
	rng := rand.New(rand.NewSource(1 ^ 0x7a11))
	zipf := rand.NewZipf(rng, 1.2, 1, 65_999)
	on := make(map[[2]int]bool)
	ops := make([]Op, n)
	for i := range ops {
		k := [2]int{int(zipf.Uint64()), rng.Intn(2000)}
		on[k] = !on[k]
		ops[i] = EventOp(Record{SwarmID: k[0], PeerID: uint64(k[1]) << 1, Seed: k[1] < 100, Online: on[k], Time: 210 + float64(i+1)*1e-6})
	}
	return ops
}

// eventOps is ops without its registrations and census ops.
func eventOps(ops []Op) []Op {
	var evs []Op
	for _, op := range ops {
		if op.kind == opEvent {
			evs = append(evs, op)
		}
	}
	return evs
}

// preloadOps is a generated study's publisher sessions in global time
// order, as the benchmark preloads them (registrations left out).
func preloadOps(swarms int) []Op {
	ops := eventOps(studyOps(swarms, 1))
	slices.SortStableFunc(ops, func(a, b Op) int { return cmp.Compare(a.rec.Time, b.rec.Time) })
	return ops
}

// TestEventWireBytes: what an event op costs in the journal on the
// traffic that produces it, each shape below its stated bound and all
// below the 26 bytes of the fixed-width layout the compact one replaced.
// Logged, so CI keeps the figures as a trajectory. The worst case —
// swarm ids needing a ten-byte varint and wide peers, 27 B — is a
// hostile stream's, not a bound (DESIGN §12).
func TestEventWireBytes(t *testing.T) {
	for _, shape := range []struct {
		name  string
		bound float64
		feed  func(t *testing.T, e *Engine)
	}{
		// One swarm and one time per round: a header and a wide peer.
		{"fleet: ProbeDiff rounds, ObservationKey peers, StreamClient", 10, func(t *testing.T, e *Engine) {
			streamOps(t, e, fleetOps(200, 300))
		}},
		// One swarm's sessions in a row: the swarm is flagged, the time is not.
		{"replay: a study's TraceOps events through a Writer", 11.5, func(t *testing.T, e *Engine) {
			w := e.NewWriter()
			for _, op := range eventOps(studyOps(300, 7)) {
				if err := w.Put(op); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}},
		{"bench tail: Zipf(1.2) over 66K swarms, 2K peers, StreamClient", 12.5, func(t *testing.T, e *Engine) {
			streamOps(t, e, tailOps(20_480))
		}},
		// A new swarm nearly every op; at 66K swarms ids take a byte more.
		{"preload: 1 000 study swarms in time order, StreamClient", 13.5, func(t *testing.T, e *Engine) {
			streamOps(t, e, preloadOps(1000))
		}},
	} {
		perOp, n := journaledBytesPerOp(t, func(e *Engine) { shape.feed(t, e) })
		t.Logf("%-66s %6.2f B/op over %d ops", shape.name, perOp, n)
		if n == 0 || perOp > shape.bound || perOp > 26 {
			t.Errorf("%s: %.2f B/op over %d ops, bound %.1f", shape.name, perOp, n, shape.bound)
		}
	}
}
