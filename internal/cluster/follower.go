package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/wal"
)

// FollowerConfig parameterises a Follower.
type FollowerConfig struct {
	// LeaderURL is the leader's base URL (e.g. http://127.0.0.1:8647).
	LeaderURL string
	// Dir is the follower's local durability directory: shipped WAL
	// segments and bootstrap checkpoints land here, in exactly the
	// layout ingest.OpenDurable expects, so promotion is a recovery.
	Dir string
	// PollEvery is the catch-up poll cadence (default 250ms).
	PollEvery time.Duration
	// Metrics, when set, registers follower gauges and counters.
	Metrics *obs.Registry
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.PollEvery <= 0 {
		c.PollEvery = 250 * time.Millisecond
	}
	return c
}

// Follower replicates a leader availd's journal into a local directory
// by polling the leader's WAL-shipping endpoints: status to find the
// window, stream to pull frames from its last shipped sequence, and
// checkpoint to re-bootstrap when the leader's own checkpointing has
// truncated the frames it needs. Everything lands on disk in
// ingest.OpenDurable's layout, so promoting the follower is exactly a
// crash recovery — load newest checkpoint, replay WAL tail — of state
// the leader acknowledged.
//
// Shipping is pull-based and at-least-once at the transport level but
// exactly-once on disk: frame i of a stream response is guaranteed to
// be sequence from+i, the follower appends only at its own log's next
// sequence, and any mismatch aborts the pass rather than corrupting
// the copy.
type Follower struct {
	cfg    FollowerConfig
	log    *wal.Log     // synced per append, as the leader's: a shipped frame survives SIGKILL
	client *http.Client // every leader request, each under a timeout

	shipped    atomic.Uint64 // newest sequence durably copied locally
	bootstraps atomic.Uint64

	shippedFrames *obs.Counter

	running atomic.Bool // Run entered; Close must wait for done

	mu      sync.Mutex
	stopped bool
	stop    chan struct{}
	done    chan struct{}
}

// NewFollower opens (or resumes) a follower over dir. An existing
// directory resumes where the last run stopped: the shipped watermark
// is the newer of the local journal's tail and the newest local
// checkpoint.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	cfg = cfg.withDefaults()
	if cfg.LeaderURL == "" || cfg.Dir == "" {
		return nil, errors.New("cluster: follower needs LeaderURL and Dir")
	}
	log, _, err := wal.Open(cfg.Dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	f := &Follower{
		cfg:    cfg,
		log:    log,
		client: &http.Client{Timeout: 30 * time.Second},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	shipped := log.LastSeq()
	if _, ckptSeq, ok, err := ingest.NewestCheckpoint(cfg.Dir); err != nil {
		log.Close()
		return nil, err
	} else if ok && ckptSeq > shipped {
		shipped = ckptSeq
	}
	f.shipped.Store(shipped)
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc("follower_shipped_seq", func() float64 { return float64(f.shipped.Load()) })
		reg.GaugeFunc("follower_bootstraps_total", func() float64 { return float64(f.bootstraps.Load()) })
		f.shippedFrames = reg.Counter("follower_shipped_frames_total")
	}
	return f, nil
}

// Shipped returns the newest sequence durably copied locally.
func (f *Follower) Shipped() uint64 { return f.shipped.Load() }

// Bootstraps returns how many times the follower re-based on a leader
// checkpoint because its catch-up point had been truncated.
func (f *Follower) Bootstraps() uint64 { return f.bootstraps.Load() }

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Run polls the leader until ctx ends or Close is called. Transient
// sync errors (leader briefly unreachable, stream cut mid-response) are
// logged and retried on the next tick — a follower's job description is
// surviving its leader's bad days.
func (f *Follower) Run(ctx context.Context) {
	f.running.Store(true)
	defer close(f.done)
	t := time.NewTicker(f.cfg.PollEvery)
	defer t.Stop()
	for {
		if err := f.Sync(ctx); err != nil && ctx.Err() == nil {
			f.logf("follower sync: %v", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-f.stop:
			return
		case <-t.C:
		}
	}
}

// Sync performs one catch-up pass: pull stream responses from
// shipped+1 until the leader reports no more frames, bootstrapping from
// the leader's checkpoint if the tail was truncated away. Safe to call
// directly (tests, pre-promotion drains) as long as Run isn't also
// mid-pass.
func (f *Follower) Sync(ctx context.Context) error {
	for {
		n, err := f.streamOnce(ctx)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
	}
}

// streamOnce pulls one /v1/wal/stream response and appends its frames.
// Returns the number of frames appended.
func (f *Follower) streamOnce(ctx context.Context) (int, error) {
	from := f.shipped.Load() + 1
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/wal/stream?from=%d", f.cfg.LeaderURL, from), nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The leader checkpointed past our tail: re-base on its
		// checkpoint, then resume streaming from there.
		if err := f.bootstrap(ctx); err != nil {
			return 0, err
		}
		return 1, nil // force another pass to stream past the checkpoint
	default:
		return 0, fmt.Errorf("cluster: wal stream: %w", statusError(resp))
	}

	r := wal.NewFrameReader(resp.Body)
	want := from
	appended := 0
	for {
		payload, rerr := r.Next()
		if rerr != nil {
			// io.EOF is the clean end; anything else is a cut response —
			// the frames before the cut are good, so keep them and let
			// the next pass re-poll from the new watermark.
			if !errors.Is(rerr, io.EOF) {
				f.logf("follower stream cut at seq %d: %v", want, rerr)
			}
			return appended, nil
		}
		seq, aerr := f.log.Append(payload)
		if aerr != nil {
			return appended, aerr
		}
		if seq != want {
			// The local log disagrees about the next sequence — a gap that
			// replaying would silently misnumber. Refuse loudly.
			return appended, fmt.Errorf("cluster: follower appended seq %d, want %d", seq, want)
		}
		f.shipped.Store(seq)
		f.shippedFrames.Inc()
		want++
		appended++
	}
}

// bootstrap fetches the leader's newest checkpoint into the local
// directory and advances the local journal past it.
func (f *Follower) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.LeaderURL+"/v1/wal/checkpoint", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: wal checkpoint: %w", statusError(resp))
	}
	seqStr := resp.Header.Get("X-Checkpoint-Seq")
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil || seq == 0 {
		return fmt.Errorf("cluster: wal checkpoint: bad X-Checkpoint-Seq %q", seqStr)
	}

	// Atomic, so a cut transfer never leaves a half checkpoint under the
	// name recovery trusts, and durable before the journal moves past it.
	_, err = wal.WriteFileAtomic(ingest.CheckpointPath(f.cfg.Dir, seq), func(w io.Writer) error {
		_, cerr := io.Copy(w, resp.Body)
		return cerr
	})
	if err != nil {
		return err
	}
	if err := f.log.AdvanceTo(seq); err != nil {
		return err
	}
	f.shipped.Store(seq)
	f.bootstraps.Add(1)
	f.logf("follower bootstrapped from leader checkpoint at seq %d", seq)
	return nil
}

// Close stops the poll loop (if running) and closes the local journal.
// Idempotent. After Close the directory is quiescent and ready for
// ingest.OpenDurable under whatever durability policy the promoting node
// runs — promotion is Close, then an ordinary recovery. Close must not
// race the start of Run: start the loop before arranging its shutdown.
func (f *Follower) Close() error {
	f.mu.Lock()
	if !f.stopped {
		f.stopped = true
		close(f.stop)
	}
	f.mu.Unlock()
	if f.running.Load() {
		<-f.done
	}
	return f.log.Close()
}
