package ingest

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPClientConcurrentPushes drives one shared HTTPClient from two
// goroutines whose pushes all fail once before succeeding, so both hit
// the jittered-backoff path concurrently. Run under -race (CI does)
// this is the regression test for the data race on the client's rng:
// backoff() must serialise jitter draws and the retry counter behind
// the client mutex.
func TestHTTPClientConcurrentPushes(t *testing.T) {
	var hits atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fail every other request: each Push's first attempt bounces
		// with a retryable 503, forcing a backoff draw per push.
		if hits.Add(1)%2 == 1 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"accepted":1}`))
	}))
	defer srv.Close()

	c := NewHTTPClient(HTTPClientConfig{
		BaseURL:     srv.URL,
		MaxAttempts: 10,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
	})

	const pushers, pushes = 2, 32
	var wg sync.WaitGroup
	errs := make([]error, pushers)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				recs := []Record{{SwarmID: p*1000 + i, PeerID: 1, Seed: true, Online: true}}
				if err := c.Push(context.Background(), recs); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("pusher %d: %v", p, err)
		}
	}
	if got := c.Retries(); got == 0 {
		t.Fatalf("no retries recorded; the backoff path was never exercised")
	} else {
		t.Logf("retries across %d concurrent pushes: %d", pushers*pushes, got)
	}
}

// TestHTTPClientPushCancelMidBackoff is the regression test for prompt
// cancellation: with a multi-second backoff pending between attempts
// against an always-failing server, cancelling the context must return
// immediately — not after the backoff timer or the remaining attempt
// budget drains.
func TestHTTPClientPushCancelMidBackoff(t *testing.T) {
	attempted := make(chan struct{}, 16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempted <- struct{}{}
		http.Error(w, "transient", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := NewHTTPClient(HTTPClientConfig{
		BaseURL:     srv.URL,
		MaxAttempts: 10,
		BackoffBase: 10 * time.Second,
		BackoffCap:  10 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- c.Push(ctx, []Record{{SwarmID: 1, PeerID: 1, Online: true}})
	}()
	<-attempted // first attempt has failed; the client is now in backoff
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Push returned %v, want context.Canceled", err)
		}
		if wait := time.Since(start); wait > 2*time.Second {
			t.Fatalf("Push took %v to honour cancellation; it sat out the backoff", wait)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Push still running 5s after cancel — stuck in the 10s backoff")
	}
}

// TestHTTPClientPushCancelDuringAttempt: a cancel while an attempt is
// in flight (server never answers) must also surface promptly as
// context.Canceled, not be retried as a transport error.
func TestHTTPClientPushCancelDuringAttempt(t *testing.T) {
	arrived := make(chan struct{}, 16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only watches for the client
		// hanging up (which cancels r.Context()) once the body is read.
		io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		<-r.Context().Done()
	}))
	defer srv.Close()

	c := NewHTTPClient(HTTPClientConfig{
		BaseURL:     srv.URL,
		MaxAttempts: 10,
		BackoffBase: 10 * time.Second,
		BackoffCap:  10 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- c.Push(ctx, []Record{{SwarmID: 1, PeerID: 1, Online: true}})
	}()
	<-arrived
	cancel()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Push returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Push did not return after cancel during an in-flight attempt")
	}
}

// TestHTTPClientPerAttemptTimeoutRetries: a per-attempt timeout from
// http.Client.Timeout surfaces as context.DeadlineExceeded with the
// caller's ctx still live. That must stay retryable — the slow-network
// fault tests depend on the client riding through per-attempt stalls.
func TestHTTPClientPerAttemptTimeoutRetries(t *testing.T) {
	var hits atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			select { // stall past the client's per-attempt timeout
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
			return
		}
		w.Write([]byte(`{"accepted":1}`))
	}))
	defer srv.Close()

	c := NewHTTPClient(HTTPClientConfig{
		BaseURL:     srv.URL,
		Client:      &http.Client{Timeout: 100 * time.Millisecond},
		MaxAttempts: 6,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
	})
	if err := c.Push(context.Background(), []Record{{SwarmID: 1, PeerID: 1, Online: true}}); err != nil {
		t.Fatalf("Push did not ride through per-attempt timeouts: %v", err)
	}
	if hits.Load() < 3 {
		t.Fatalf("server saw %d attempts, want >= 3", hits.Load())
	}
}
