package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay mutates raw segment bytes and requires that Open +
// Replay never panic: any corruption must either be repaired (clean
// prefix) or surface as an error, and an append must still work on the
// repaired log. This is the crash-recovery contract under arbitrary
// disk damage, not just the torn tails a clean SIGKILL leaves.
func FuzzWALReplay(f *testing.F) {
	// Seed with a well-formed two-frame segment...
	var seed []byte
	seed = AppendFrame(seed, []byte("hello"))
	seed = AppendFrame(seed, []byte("world, this is frame two"))
	f.Add(seed)
	// ...and with its classic mutations: torn tail, zero length, huge
	// length, flipped CRC.
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 9})
	f.Add(append([]byte{5, 0, 0, 0, 0, 0, 0, 0}, 'a', 'b', 'c', 'd', 'e'))
	// A group write cut inside its third frame of four.
	var group []byte
	for _, p := range []string{"g1", "group frame two", "g3", "the last frame of the group"} {
		group = AppendFrame(group, []byte(p))
	}
	f.Add(group[:len(group)-40])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", 1)), data, 0o644); err != nil {
			t.Skip()
		}
		l, st, err := Open(dir, Options{Policy: SyncNone})
		if err != nil {
			return // I/O errors are allowed; panics are not
		}
		defer l.Close()
		var frames uint64
		if err := l.Replay(1, func(seq uint64, payload []byte) error {
			frames++
			return nil
		}); err != nil {
			t.Fatalf("replay of a repaired log reported corruption: %v (stats %+v)", err, st)
		}
		if frames != st.Frames {
			t.Fatalf("replayed %d frames, Open reported %d", frames, st.Frames)
		}
		// The repaired log must accept and retain a new group.
		seq, err := l.Append([]byte("post-repair"), []byte("and its group mate"))
		if err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if seq != st.Frames+2 {
			t.Fatalf("group of two returned seq %d after %d recovered frames", seq, st.Frames)
		}
	})
}
