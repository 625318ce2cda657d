package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collect replays the whole log into a slice of payload copies.
func collect(t *testing.T, l *Log, fromSeq uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	if err := l.Replay(fromSeq, func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func openT(t *testing.T, dir string, opts Options) (*Log, OpenStats) {
	t.Helper()
	l, st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, st
}

// segmentLayout lists dir's segment files with their sizes.
func segmentLayout(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, seg := range segs {
		info, err := os.Stat(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("%s:%d ", filepath.Base(seg.path), info.Size())
	}
	return out
}

// TestAppendReplayRoundTrip appends frame by frame and in groups whose
// frames straddle several rotations: sequence numbers, replay and the
// on-disk segment layout must not depend on how the frames were grouped.
func TestAppendReplayRoundTrip(t *testing.T) {
	var layouts []string
	for _, group := range []int{1, 7} {
		t.Run(fmt.Sprintf("group=%d", group), func(t *testing.T) {
			dir := t.TempDir()
			// Tiny segments force several rotations — inside a group too.
			l, _ := openT(t, dir, Options{segmentMax: 64, Policy: SyncNone})
			const n = 50
			for i := 1; i <= n; i += group {
				var frames [][]byte
				for k := i; k < i+group && k <= n; k++ {
					frames = append(frames, []byte(fmt.Sprintf("frame-%03d", k)))
				}
				seq, err := l.Append(frames...)
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				if want := uint64(i + len(frames) - 1); seq != want {
					t.Fatalf("append %d.. returned seq %d, want the group's last, %d", i, seq, want)
				}
			}
			if l.LastSeq() != n {
				t.Fatalf("LastSeq = %d, want %d", l.LastSeq(), n)
			}
			if l.Segments() < 2 {
				t.Fatalf("expected rotation, got %d segments", l.Segments())
			}
			got := collect(t, l, 1)
			if len(got) != n {
				t.Fatalf("replayed %d frames, want %d", len(got), n)
			}
			for i := 1; i <= n; i++ {
				if got[uint64(i)] != fmt.Sprintf("frame-%03d", i) {
					t.Fatalf("frame %d = %q", i, got[uint64(i)])
				}
			}
			// fromSeq skips the prefix.
			if tail := collect(t, l, n-4); len(tail) != 5 {
				t.Fatalf("tail replay got %d frames, want 5", len(tail))
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			layouts = append(layouts, segmentLayout(t, dir))

			// Reopen: everything survives, appends continue the sequence.
			l2, st := openT(t, dir, Options{segmentMax: 64, Policy: SyncNone})
			defer l2.Close()
			if st.Frames != n || st.TruncatedBytes != 0 || st.DroppedSegments != 0 {
				t.Fatalf("reopen stats %+v", st)
			}
			seq, err := l2.Append([]byte("after"))
			if err != nil || seq != n+1 {
				t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
			}
			if got := collect(t, l2, 1); len(got) != n+1 || got[n+1] != "after" {
				t.Fatalf("replay after reopen: %d frames", len(got))
			}
		})
	}
	if len(layouts) == 2 && layouts[0] != layouts[1] {
		t.Fatalf("grouping changed the segment layout:\n single: %s\n groups: %s", layouts[0], layouts[1])
	}
}

// TestTornTailTruncatedOnOpen: a crash mid-append leaves a torn tail —
// garbage after clean frames, or a group write cut inside one of its
// frames. Open truncates at the last whole frame either way, and the
// earlier frames of the group replay.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	cases := []struct {
		name      string
		tear      func(t *testing.T, path string)
		wantTrunc int64
		wantKept  int
	}{
		{"garbage half-frame at the tail", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0x10, 0, 0, 0, 0xde, 0xad}); err != nil {
				t.Fatal(err)
			}
		}, 6, 5},
		{"group write cut inside its fourth frame", func(t *testing.T, path string) {
			// Frames are 8+4 bytes: keep three and a half.
			if err := os.Truncate(path, 3*12+6); err != nil {
				t.Fatal(err)
			}
		}, 6, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{Policy: SyncNone})
			var group [][]byte
			for i := 0; i < 5; i++ {
				group = append(group, []byte(fmt.Sprintf("ok-%d", i)))
			}
			if _, err := l.Append(group...); err != nil {
				t.Fatal(err)
			}
			path := l.active.path
			l.Close()
			tc.tear(t, path)

			l2, st := openT(t, dir, Options{Policy: SyncNone})
			defer l2.Close()
			if st.TruncatedBytes != tc.wantTrunc {
				t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, tc.wantTrunc)
			}
			got := collect(t, l2, 1)
			if len(got) != tc.wantKept {
				t.Fatalf("replayed %d frames after repair, want %d", len(got), tc.wantKept)
			}
			for i := 0; i < tc.wantKept; i++ {
				if got[uint64(i+1)] != fmt.Sprintf("ok-%d", i) {
					t.Fatalf("frame %d = %q after repair", i+1, got[uint64(i+1)])
				}
			}
			// The repaired log accepts appends again.
			if seq, err := l2.Append([]byte("post-repair")); err != nil || seq != uint64(tc.wantKept+1) {
				t.Fatalf("append after repair: seq=%d err=%v", seq, err)
			}
		})
	}
}

// TestFailedWriteNeverBuriesLaterFrames injects a short write in the
// middle of a group through the write hook, on a fresh segment and on a
// reopened (O_APPEND) one. Without a rollback the next successful append
// would land behind the torn bytes and the next Open would drop it.
// Every frame whose Append returned nil must replay after a reopen, and
// after a rollback nothing else may; when even the rollback fails the
// log must refuse every later append instead.
func TestFailedWriteNeverBuriesLaterFrames(t *testing.T) {
	for _, tc := range []struct{ reopened, rollbackFails bool }{
		{false, false}, {true, false}, {false, true},
	} {
		rollbackFails := tc.rollbackFails
		t.Run(fmt.Sprintf("reopened=%v/rollbackFails=%v", tc.reopened, rollbackFails), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{Policy: SyncNone})
			acked := map[uint64]string{}
			appendOK := func(frames ...string) {
				t.Helper()
				var group [][]byte
				for _, f := range frames {
					group = append(group, []byte(f))
				}
				last, err := l.Append(group...)
				if err != nil {
					t.Fatalf("append %v: %v", frames, err)
				}
				for i, f := range frames {
					acked[last-uint64(len(frames)-1-i)] = f
				}
			}
			appendOK("a1", "a2")
			if tc.reopened {
				l.Close()
				l, _ = openT(t, dir, Options{Policy: SyncNone})
			}

			injected := errors.New("injected short write")
			l.writeHook = func(f *os.File, p []byte) (int, error) {
				n, _ := f.Write(p[:len(p)/2]) // tears the group's second frame
				if rollbackFails {
					f.Close() // the rollback's Truncate now fails too
				}
				return n, injected
			}
			if _, err := l.Append([]byte("lost-1"), []byte("lost-2"), []byte("lost-3")); err == nil {
				t.Fatal("torn append returned nil")
			} else if !rollbackFails && !errors.Is(err, injected) {
				t.Fatalf("torn append returned %v, want the injected error", err)
			}
			l.writeHook = nil

			if rollbackFails {
				if _, err := l.Append([]byte("behind-garbage")); err == nil {
					t.Fatal("log accepted an append behind a torn region it could not roll back")
				}
			} else {
				appendOK("b1", "b2", "b3")
				if l.LastSeq() != 5 {
					t.Fatalf("LastSeq = %d after a rolled-back group, want 5", l.LastSeq())
				}
			}
			l.Close()

			l2, _ := openT(t, dir, Options{Policy: SyncNone})
			defer l2.Close()
			got := collect(t, l2, 1)
			for seq, want := range acked {
				if got[seq] != want {
					t.Fatalf("frame %d acknowledged as %q, replayed as %q (all: %v)", seq, want, got[seq], got)
				}
			}
			if !rollbackFails && len(got) != len(acked) {
				t.Fatalf("replayed %d frames, %d were acknowledged: %v", len(got), len(acked), got)
			}
		})
	}
}

func TestCorruptMiddleDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{segmentMax: 32, Policy: SyncNone})
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if segs < 3 {
		t.Fatalf("want ≥3 segments, got %d", segs)
	}
	first := l.sealed[0]
	l.Close()

	// Flip one payload byte in the FIRST segment: every later frame —
	// including whole later segments — is beyond the repair point.
	raw, err := os.ReadFile(first.path)
	if err != nil {
		t.Fatal(err)
	}
	raw[FrameHeaderSize] ^= 0xff
	if err := os.WriteFile(first.path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, st := openT(t, dir, Options{segmentMax: 32, Policy: SyncNone})
	defer l2.Close()
	if st.DroppedSegments != segs-1 {
		t.Fatalf("DroppedSegments = %d, want %d", st.DroppedSegments, segs-1)
	}
	if got := collect(t, l2, 1); len(got) != 0 {
		t.Fatalf("replayed %d frames from a log corrupt at frame 1", len(got))
	}
	if l2.LastSeq() != 0 {
		t.Fatalf("LastSeq = %d, want 0", l2.LastSeq())
	}
}

func TestTruncateThroughDropsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{segmentMax: 48, Policy: SyncNone})
	defer l.Close()
	for i := 1; i <= 30; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	if n := l.Segments(); n != 0 {
		t.Fatalf("segments after full truncate = %d, want 0", n)
	}
	if got := collect(t, l, 1); len(got) != 0 {
		t.Fatalf("replay after full truncate returned %d frames", len(got))
	}
	// The sequence continues monotonically.
	seq, err := l.Append([]byte("next-era"))
	if err != nil || seq != 31 {
		t.Fatalf("append after truncate: seq=%d err=%v", seq, err)
	}
	if got := collect(t, l, 1); len(got) != 1 || got[31] != "next-era" {
		t.Fatalf("replay after truncate+append: %v", got)
	}

	// Partial truncate keeps frames above the mark.
	for i := 32; i <= 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateThrough(35); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 1)
	for seq := range got {
		if seq <= 31 {
			// Whole segments only: frames ≤35 may survive if they share
			// a segment with later frames, but a fully-covered segment
			// must be gone — seq 31's 48-byte segment sealed well
			// before 35.
			t.Fatalf("frame %d should have been dropped", seq)
		}
	}
	if _, ok := got[40]; !ok {
		t.Fatal("frame 40 lost by partial truncate")
	}
}

func TestReopenAfterTruncateThroughKeepsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{segmentMax: 48, Policy: SyncNone})
	for i := 1; i <= 30; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateThrough(15); err != nil {
		t.Fatal(err)
	}
	before := collect(t, l, 1)
	if len(before) == 0 {
		t.Fatal("truncate removed everything")
	}
	l.Close()

	// Reopen: the log no longer starts at sequence 1 — the surviving
	// suffix must be kept intact, not mistaken for corruption.
	l2, st := openT(t, dir, Options{segmentMax: 48, Policy: SyncNone})
	defer l2.Close()
	if st.DroppedSegments != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("reopen after checkpoint-truncate repaired a healthy log: %+v", st)
	}
	after := collect(t, l2, 1)
	if len(after) != len(before) {
		t.Fatalf("reopen kept %d frames, want %d", len(after), len(before))
	}
	if _, ok := after[30]; !ok {
		t.Fatal("frame 30 lost on reopen")
	}
	if seq, err := l2.Append([]byte("onward")); err != nil || seq != 31 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestAdvanceTo(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNone})
	for i := 1; i <= 5; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Advancing below the tail is a no-op.
	if err := l.AdvanceTo(3); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 5 {
		t.Fatalf("LastSeq after no-op advance = %d", l.LastSeq())
	}
	// Advancing past the tail (checkpoint newer than the journal) drops
	// the covered frames and moves the sequence.
	if err := l.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append([]byte("y")); err != nil || seq != 101 {
		t.Fatalf("append after advance: seq=%d err=%v", seq, err)
	}
	l.Close()
	l2, st := openT(t, dir, Options{Policy: SyncNone})
	defer l2.Close()
	if st.Frames != 1 {
		t.Fatalf("frames after reopen = %d, want 1", st.Frames)
	}
	got := collect(t, l2, 1)
	if got[101] != "y" {
		t.Fatalf("frame 101 = %q", got[101])
	}
}

func TestTruncateFromCutsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{segmentMax: 64, Policy: SyncNone})
	defer l.Close()
	for i := 1; i <= 20; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateFrom(8); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 1)
	if len(got) != 7 {
		t.Fatalf("replayed %d frames after TruncateFrom(8), want 7", len(got))
	}
	if _, ok := got[8]; ok {
		t.Fatal("frame 8 survived TruncateFrom(8)")
	}
	if seq, err := l.Append([]byte("rewritten")); err != nil || seq != 8 {
		t.Fatalf("append after cut: seq=%d err=%v", seq, err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEachAppend, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{Policy: policy})
			for i := 0; i < 10; i++ {
				if _, err := l.Append([]byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, st := openT(t, dir, Options{Policy: policy})
			defer l2.Close()
			if st.Frames != 10 {
				t.Fatalf("frames after reopen = %d, want 10", st.Frames)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"batch": SyncEachAppend, "": SyncEachAppend,
		"off": SyncNone, "OFF": SyncNone,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// The old aliases are refused too: -fsync has one spelling per policy.
	for _, in := range []string{"everysooften", "interval", "always", "each", "none", "never"} {
		if _, err := ParseSyncPolicy(in); err == nil || !strings.Contains(err.Error(), "want batch or off") {
			t.Errorf("ParseSyncPolicy(%q) error = %v; want a refusal naming batch and off", in, err)
		}
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNone})
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
	if err := l.TruncateThrough(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("truncate after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestAppendRejectsOversizedPayload(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNone})
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Error("empty payload accepted")
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, st := openT(t, dir, Options{Policy: SyncNone})
	defer l.Close()
	if st.Frames != 0 || st.Segments != 0 {
		t.Fatalf("stats with foreign file: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatalf("foreign file touched: %v", err)
	}
}

// TestWriteFileAtomic: a failing write leaves neither the target nor a
// temp file behind (and an existing target untouched); success leaves
// exactly the target, whole.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	names := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, ent := range ents {
			out = append(out, ent.Name())
		}
		return out
	}
	boom := errors.New("boom")
	fail := func(w io.Writer) error {
		if _, err := w.Write([]byte("half a fi")); err != nil {
			return err
		}
		return boom
	}

	if _, err := WriteFileAtomic(path, fail); !errors.Is(err, boom) {
		t.Fatalf("failing write returned %v, want its error", err)
	}
	if got := names(); len(got) != 0 {
		t.Fatalf("a failed write left %v behind", got)
	}

	n, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first"))
		return err
	})
	if err != nil || n != 5 {
		t.Fatalf("WriteFileAtomic = %d, %v; want 5 bytes", n, err)
	}
	if got := names(); len(got) != 1 || got[0] != "state.json" {
		t.Fatalf("directory holds %v, want exactly the target", got)
	}

	if _, err := WriteFileAtomic(path, fail); !errors.Is(err, boom) {
		t.Fatalf("failing overwrite returned %v, want its error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first" || len(names()) != 1 {
		t.Fatalf("a failed overwrite left %q (%v) in %v, want the old content alone", got, err, names())
	}
}
