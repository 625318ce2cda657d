package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// WriteTraces serialises traces as JSON lines (one swarm per line) — the
// archival format of the synthetic measurement campaign.
func WriteTraces(w io.Writer, traces []SwarmTrace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range traces {
		if err := enc.Encode(&traces[i]); err != nil {
			return fmt.Errorf("trace: encoding swarm %d: %w", traces[i].Meta.ID, err)
		}
	}
	return bw.Flush()
}

// Source is the streaming-read interface shared by Scanner (sequential
// json.Decoder) and ParallelScanner (order-preserving worker-pool
// decode). Consumers written against Source — the replay helpers,
// cmd/availd, cmd/swarmavail — work with either and can pick per
// workload: Scanner for small inputs or single-core machines,
// ParallelScanner when decode is the bottleneck.
type Source[T any] interface {
	// Scan advances to the next record; false at end of input or on the
	// first decode error (Err distinguishes).
	Scan() bool
	// Record returns the record read by the last successful Scan.
	Record() T
	// Err returns the first decode error, or nil on clean end of input.
	Err() error
}

// Scanner streams a JSON-lines dataset one record at a time, so replay
// and analysis tools can process campaigns far larger than memory.
// Instantiated as Scanner[SwarmTrace] (NewTraceScanner) or
// Scanner[Snapshot] (NewSnapshotScanner).
//
// Usage follows bufio.Scanner:
//
//	sc := trace.NewTraceScanner(f)
//	for sc.Scan() {
//	    t := sc.Record()
//	    …
//	}
//	if err := sc.Err(); err != nil { … }
type Scanner[T any] struct {
	dec *json.Decoder
	cur T
	n   int
	err error
}

// NewTraceScanner returns a streaming reader over an availability-study
// trace file.
func NewTraceScanner(r io.Reader) *Scanner[SwarmTrace] { return newScanner[SwarmTrace](r) }

// NewSnapshotScanner returns a streaming reader over a census snapshot
// file.
func NewSnapshotScanner(r io.Reader) *Scanner[Snapshot] { return newScanner[Snapshot](r) }

// NewScanner returns a sequential streaming reader over a JSONL stream
// of any record type (availd uses it for ingest records).
func NewScanner[T any](r io.Reader) *Scanner[T] { return newScanner[T](r) }

func newScanner[T any](r io.Reader) *Scanner[T] {
	// json.Decoder reads in small chunks; the bufio layer keeps the
	// underlying reads large even for unbuffered sources (files, pipes,
	// network bodies).
	return &Scanner[T]{dec: json.NewDecoder(bufio.NewReader(r))}
}

// Scan advances to the next record. It returns false at end of input or
// on the first decode error; Err distinguishes the two.
func (s *Scanner[T]) Scan() bool {
	if s.err != nil {
		return false
	}
	var rec T
	if err := s.dec.Decode(&rec); err != nil {
		if !errors.Is(err, io.EOF) {
			s.err = fmt.Errorf("trace: decoding record %d: %w", s.n, err)
		}
		return false
	}
	s.cur = rec
	s.n++
	return true
}

// Record returns the record read by the last successful Scan.
func (s *Scanner[T]) Record() T { return s.cur }

// Count returns the number of records successfully read so far.
func (s *Scanner[T]) Count() int { return s.n }

// Err returns the first decode error, or nil if the stream ended
// cleanly. A truncated final record surfaces as io.ErrUnexpectedEOF
// (wrapped), not as a clean end.
func (s *Scanner[T]) Err() error { return s.err }

// ReadTraces parses a JSON-lines trace stream into memory. Prefer
// NewTraceScanner for large datasets.
func ReadTraces(r io.Reader) ([]SwarmTrace, error) {
	sc := NewTraceScanner(r)
	var out []SwarmTrace
	for sc.Scan() {
		out = append(out, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteSnapshots serialises a snapshot dataset as JSON lines.
func WriteSnapshots(w io.Writer, snaps []Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range snaps {
		if err := enc.Encode(&snaps[i]); err != nil {
			return fmt.Errorf("trace: encoding snapshot %d: %w", snaps[i].Meta.ID, err)
		}
	}
	return bw.Flush()
}

// ReadSnapshots parses a JSON-lines snapshot stream into memory. Prefer
// NewSnapshotScanner for large datasets.
func ReadSnapshots(r io.Reader) ([]Snapshot, error) {
	sc := NewSnapshotScanner(r)
	var out []Snapshot
	for sc.Scan() {
		out = append(out, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
