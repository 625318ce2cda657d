package cluster

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"swarmavail/internal/ingest"
	"swarmavail/internal/wal"
)

// maxStreamFrames caps the frames served per /v1/wal/stream response.
// The follower polls, so a cap costs another round trip, not data; what
// it buys is bounded response bodies while a cold follower catches up
// through months of journal.
const maxStreamFrames = 4096

// WALStatus is the GET /v1/wal/status body: the shippable window of a
// leader's journal.
type WALStatus struct {
	// FirstSeq is the oldest frame still on disk (0 = journal empty);
	// a follower whose catch-up point is older must bootstrap from the
	// checkpoint instead.
	FirstSeq uint64 `json:"first_seq"`
	// LastSeq is the newest appended frame (0 = nothing ever appended).
	LastSeq uint64 `json:"last_seq"`
	// CheckpointSeq is the newest on-disk checkpoint's coverage
	// (0 = no checkpoint).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
}

// WALServer serves a durable engine's journal over HTTP for follower
// catch-up: status (what's shippable), stream (the frames themselves,
// re-framed with the same length+CRC envelope they carry on disk) and
// checkpoint (bootstrap when the requested tail has been truncated).
// All reads use wal.Log.Replay, which is safe alongside the engine's
// appends, so shipping never stalls ingest.
type WALServer struct {
	Log *wal.Log
	// Dir is the durability directory holding checkpoint files.
	Dir string
}

// Register mounts the WAL-shipping routes on mux.
func (s *WALServer) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/wal/status", s.handleStatus)
	mux.HandleFunc("GET /v1/wal/stream", s.handleStream)
	mux.HandleFunc("GET /v1/wal/checkpoint", s.handleCheckpoint)
}

func (s *WALServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	_, ckptSeq, _, err := ingest.NewestCheckpoint(s.Dir) // 0 when there is none
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ingest.WriteJSON(w, WALStatus{FirstSeq: s.Log.FirstSeq(), LastSeq: s.Log.LastSeq(), CheckpointSeq: ckptSeq})
}

// handleStream serves GET /v1/wal/stream?from=N: frames N, N+1, … (up
// to maxStreamFrames) in the on-disk envelope, concatenated. The first
// frame served is exactly N or the response is an error — a follower
// can therefore trust positions: frame i of the body has sequence N+i.
//
//   - 200: zero or more frames starting at N (empty body = caught up).
//   - 410: N is below the retained window (checkpoint truncated it);
//     re-bootstrap from /v1/wal/checkpoint.
//   - 400: bad or missing from.
func (s *WALServer) handleStream(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		http.Error(w, "bad from sequence", http.StatusBadRequest)
		return
	}
	// The oldest sequence this journal can serve: FirstSeq when frames
	// exist, otherwise the next sequence to be appended (an empty journal
	// after a checkpoint at seq S can serve from S+1 on).
	minAvail := s.Log.FirstSeq()
	if minAvail == 0 {
		minAvail = s.Log.LastSeq() + 1
	}
	if from < minAvail {
		http.Error(w, fmt.Sprintf("sequence %d truncated (oldest available %d); bootstrap from checkpoint", from, minAvail), http.StatusGone)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	var (
		buf    []byte
		served int
		want   = from
	)
	// Frames already written are valid whatever happened after them: the
	// follower appends the clean prefix it received and re-polls. The cap
	// is not an error at all, and a mid-stream failure (segment deleted
	// by a racing checkpoint truncation) just ends the response early —
	// status 200 was committed with the first byte anyway.
	errStop := fmt.Errorf("stream frame cap")
	_ = s.Log.Replay(from, func(seq uint64, payload []byte) error {
		if served >= maxStreamFrames {
			return errStop
		}
		if seq != want {
			return fmt.Errorf("wal tail gap: want seq %d, got %d", want, seq)
		}
		buf = wal.AppendFrame(buf[:0], payload)
		if _, werr := w.Write(buf); werr != nil {
			return werr
		}
		served++
		want++
		return nil
	})
}

// handleCheckpoint serves the newest checkpoint file whole, with its
// coverage sequence in X-Checkpoint-Seq. 404 when no checkpoint exists
// yet (the follower then streams the journal from seq 1).
func (s *WALServer) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	path, seq, ok, err := ingest.NewestCheckpoint(s.Dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(w, "no checkpoint", http.StatusNotFound)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Checkpoint-Seq", strconv.FormatUint(seq, 10))
	_, _ = io.Copy(w, f)
}
