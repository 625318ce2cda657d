package ingest

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swarmavail/internal/trace"
)

// NewSourceID returns a fresh random idempotency source id (8 bytes,
// hex). One id names one sender stream: batches pushed under it carry
// monotonic sequence numbers, and the server deduplicates on the
// (source, seq) pair.
func NewSourceID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// jitter PRNG's seed space rather than refusing to start.
		return "src-" + strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return hex.EncodeToString(b[:])
}

// HTTPClientConfig parameterises an HTTPClient. The zero value (plus a
// BaseURL) selects sensible defaults.
type HTTPClientConfig struct {
	// BaseURL is the server root (e.g. http://127.0.0.1:8647): pushes go
	// to its /v1/ingest, and the GET helpers (FetchSummary, FetchCDF)
	// resolve against it.
	BaseURL string
	// Client is the underlying HTTP client (default: 30s timeout). Tests
	// inject fault-wrapped transports here.
	Client *http.Client
	// MaxAttempts bounds tries per batch, first attempt included
	// (default 6).
	MaxAttempts int
	// BackoffBase/BackoffCap shape the capped exponential retry backoff
	// (defaults 100ms / 5s); each wait is jittered to [d/2, d).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Source is the idempotency source id stamped (with a per-client
	// sequence) on every push so server-side dedup makes retries
	// exactly-once. Default: a fresh random id from NewSourceID.
	Source string
	// Logf, when set, receives one line per retried attempt.
	Logf func(format string, args ...any)
}

func (c HTTPClientConfig) withDefaults() HTTPClientConfig {
	c.BaseURL = strings.TrimSuffix(c.BaseURL, "/")
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 5 * time.Second
	}
	if c.Source == "" {
		c.Source = NewSourceID()
	}
	return c
}

// HTTPClient pushes monitor records to an availd /v1/ingest endpoint
// with at-least-once delivery: each batch is retried with capped,
// jittered exponential backoff through transient failures (transport
// errors, 5xx, 429) and abandoned only on a fatal server verdict (other
// 4xx) or when the context ends. A batch is acknowledged once the
// server has accepted every record into its engine queues — which a
// gracefully shut down availd drains before exiting, so acked records
// survive a SIGTERM on either end of the connection.
type HTTPClient struct {
	cfg HTTPClientConfig

	// seq numbers the batches pushed under cfg.Source; retries of one
	// batch reuse its number, which is what lets the server deduplicate.
	seq atomic.Uint64

	mu  sync.Mutex
	rng *mrand.Rand

	retries uint64 // attempts beyond the first, across all pushes
}

// jitterSeed seeds every client's jitter stream: determinism is harmless
// here and useful in tests.
const jitterSeed = 0x16e57

// NewHTTPClient returns a client for cfg.BaseURL.
func NewHTTPClient(cfg HTTPClientConfig) *HTTPClient {
	cfg = cfg.withDefaults()
	return &HTTPClient{cfg: cfg, rng: mrand.New(mrand.NewSource(jitterSeed))}
}

// Source returns the client's idempotency source id.
func (c *HTTPClient) Source() string { return c.cfg.Source }

// Retries reports attempts beyond the first across the client's
// lifetime — the cost of the faults it rode through.
func (c *HTTPClient) Retries() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

func (c *HTTPClient) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffCap || d <= 0 {
		d = c.cfg.BackoffCap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retries++
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

func (c *HTTPClient) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Push delivers one batch of records, retrying transient failures until
// the server acknowledges all of them or ctx ends. Returns nil exactly
// when the batch is acknowledged. The batch is keyed with the client's
// source id and the next sequence number, so a retry whose first
// attempt actually landed is acknowledged by the server without being
// re-applied (exactly-once against dedup-aware servers; plain
// at-least-once against older ones, which ignore the headers).
func (c *HTTPClient) Push(ctx context.Context, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	seq := strconv.FormatUint(c.seq.Add(1), 10)
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("ingest: encoding record: %w", err)
		}
	}
	payload, n := body.Bytes(), len(recs)
	return c.do(ctx, "push", func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/v1/ingest", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		req.Header.Set(HeaderSource, c.cfg.Source)
		req.Header.Set(HeaderSeq, seq)
		return req, nil
	}, func(resp *http.Response) error {
		var ack struct {
			Accepted int `json:"accepted"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return fmt.Errorf("ingest: bad ack: %w", err)
		}
		if ack.Accepted != n {
			return &fatalPushError{err: fmt.Errorf("ingest: server accepted %d of %d records", ack.Accepted, n)}
		}
		return nil
	})
}

// do is the client's one attempt loop: it runs attempt until it
// succeeds, the verdict is fatal, ctx ends or MaxAttempts is spent,
// waiting out a capped jittered backoff between tries. what names the
// operation in log lines and the final error.
func (c *HTTPClient) do(ctx context.Context, what string, build func(context.Context) (*http.Request, error), handle func(*http.Response) error) error {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			wait := c.backoff(attempt - 1)
			c.logf("ingest %s failed (attempt %d/%d, retrying in %v): %v",
				what, attempt-1, c.cfg.MaxAttempts, wait, lastErr)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		err := c.attempt(ctx, build, handle)
		if err == nil {
			if attempt > 1 {
				c.logf("ingest %s recovered after %d failed attempts", what, attempt-1)
			}
			return nil
		}
		// The caller's context ending is fatal: either it was cancelled
		// (give the cancel back promptly instead of burning the remaining
		// backoff budget) or its own deadline passed. A per-attempt
		// timeout from http.Client.Timeout also surfaces as
		// context.DeadlineExceeded (since Go 1.16) but with ctx still
		// live — that one stays retryable, which slow-network fault tests
		// depend on.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, context.Canceled) {
			return err
		}
		var fatal *fatalPushError
		if errors.As(err, &fatal) {
			return fatal.err
		}
		lastErr = err
	}
	return fmt.Errorf("ingest: %s failed after %d attempts: %w", what, c.cfg.MaxAttempts, lastErr)
}

// PushStats summarises one PushTraces run.
type PushStats struct {
	// Records is the number of monitor records acknowledged by the
	// server; Swarms the number of study traces they came from.
	Records int
	Swarms  int
}

// PushTraces streams an archived availability study's monitor records
// to the server in acknowledged batches of `batch` records (default
// 256): replay-over-network. src is any trace source — pair it with
// trace.NewParallelTraceScanner so decode keeps up with the network.
// Registrations carry no event record and travel only on the local
// path; see TraceOps. On error, the returned stats count what was
// acknowledged before the failure.
func (c *HTTPClient) PushTraces(ctx context.Context, src trace.Source[trace.SwarmTrace], batch int) (PushStats, error) {
	if batch <= 0 {
		batch = 256
	}
	var st PushStats
	buf := make([]Record, 0, batch)
	flush := func() error {
		if err := c.Push(ctx, buf); err != nil {
			return err
		}
		st.Records += len(buf)
		buf = buf[:0]
		return nil
	}
	for src.Scan() {
		t := src.Record()
		st.Swarms++
		for _, op := range TraceOps(t) {
			rec, ok := op.EventRecord()
			if !ok {
				continue
			}
			buf = append(buf, rec)
			if len(buf) >= batch {
				if err := flush(); err != nil {
					return st, err
				}
			}
		}
	}
	if err := src.Err(); err != nil {
		return st, err
	}
	return st, flush()
}

// fatalPushError marks a server verdict that retrying cannot change.
type fatalPushError struct{ err error }

func (e *fatalPushError) Error() string { return e.err.Error() }
func (e *fatalPushError) Unwrap() error { return e.err }

// attempt is one request and the client's one response classifier: a
// transport error, 5xx or 429 is retryable, any other non-200 fatal;
// handle gets a 200, and its error is retryable unless it says
// otherwise.
func (c *HTTPClient) attempt(ctx context.Context, build func(context.Context) (*http.Request, error), handle func(*http.Response) error) error {
	req, err := build(ctx)
	if err != nil {
		return &fatalPushError{err: err}
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err // transport error: retryable
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		statusErr := fmt.Errorf("ingest: server returned %s: %s", resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			return statusErr
		}
		return &fatalPushError{err: statusErr}
	}
	return handle(resp)
}

// getJSON fetches BaseURL+path and decodes the body into v, with the
// same retry discipline as Push: transport errors, 5xx and 429 are
// retried with capped jittered backoff; other 4xx are fatal.
func (c *HTTPClient) getJSON(ctx context.Context, path string, v any) error {
	return c.do(ctx, "get "+path, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+path, nil)
	}, func(resp *http.Response) error {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return fmt.Errorf("ingest: bad response body: %w", err)
		}
		return nil
	})
}

// FetchSummary fetches the server's rendered GET /v1/summary response
// (public counters + headlines; the sketches do not travel on this
// endpoint — GET /v1/state carries the mergeable state).
func (c *HTTPClient) FetchSummary(ctx context.Context) (*SummaryResponse, error) {
	resp := &SummaryResponse{Summary: NewSummary()}
	if err := c.getJSON(ctx, "/v1/summary", resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// FetchCDF fetches GET /v1/availability/cdf, asking for qs (nil = the
// server's default quantile list).
func (c *HTTPClient) FetchCDF(ctx context.Context, qs []float64) (*CDFResponse, error) {
	path := "/v1/availability/cdf"
	if len(qs) > 0 {
		parts := make([]string, len(qs))
		for i, q := range qs {
			parts[i] = strconv.FormatFloat(q, 'g', -1, 64)
		}
		path += "?q=" + url.QueryEscape(strings.Join(parts, ","))
	}
	var resp CDFResponse
	if err := c.getJSON(ctx, path, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
