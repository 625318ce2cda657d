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
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// NewSourceID returns a fresh random idempotency source id (8 bytes,
// hex). One id names one sender stream: batches pushed under it carry
// monotonic sequence numbers, and the server deduplicates on the
// (source, seq) pair.
func NewSourceID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// clock rather than refusing to start.
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
	// MaxAttempts bounds tries per request, first attempt included
	// (default 6). The waits between them are StreamClient's: 50ms,
	// doubling up to 1.6s.
	MaxAttempts int
	// Source is the idempotency source id stamped (with a per-client
	// sequence) on every push so server-side dedup makes retries
	// exactly-once. Default: a fresh random id from NewSourceID.
	Source string
}

func (c HTTPClientConfig) withDefaults() HTTPClientConfig {
	c.BaseURL = strings.TrimSuffix(c.BaseURL, "/")
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.Source == "" {
		c.Source = NewSourceID()
	}
	return c
}

// HTTPClient pushes monitor records to an availd /v1/ingest endpoint
// with at-least-once delivery: each batch is retried through transient
// failures (transport errors, 5xx, 429) and abandoned only on a fatal
// server verdict (other 4xx) or when the context ends. A batch is
// acknowledged once the server has accepted every record into its
// engine queues — which a gracefully shut down availd drains before
// exiting, so acked records survive a SIGTERM on either end of the
// connection. Safe for concurrent use.
type HTTPClient struct {
	cfg HTTPClientConfig

	// seq numbers the batches pushed under cfg.Source; retries of one
	// batch reuse its number, which is what lets the server deduplicate.
	seq atomic.Uint64
}

// NewHTTPClient returns a client for cfg.BaseURL.
func NewHTTPClient(cfg HTTPClientConfig) *HTTPClient {
	return &HTTPClient{cfg: cfg.withDefaults()}
}

// Source returns the client's idempotency source id.
func (c *HTTPClient) Source() string { return c.cfg.Source }

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
// waiting out retryWait between tries. what names the operation in the
// final error.
func (c *HTTPClient) do(ctx context.Context, what string, build func(context.Context) (*http.Request, error), handle func(*http.Response) error) error {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			t := time.NewTimer(retryWait(attempt - 1))
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		err := c.attempt(ctx, build, handle)
		if err == nil {
			return nil
		}
		// The caller's context ending is fatal: either it was cancelled
		// (give the cancel back promptly instead of burning the remaining
		// attempts) or its own deadline passed. A per-attempt timeout from
		// http.Client.Timeout also surfaces as context.DeadlineExceeded
		// (since Go 1.16) but with ctx still live — that one stays
		// retryable, which slow-network fault tests depend on.
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
// retried; other 4xx are fatal.
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
