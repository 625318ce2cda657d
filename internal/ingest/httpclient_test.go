package ingest

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPClientConcurrentPushes drives one shared HTTPClient from two
// goroutines: every push must carry the client's one source id and a
// sequence number no other push got, or the server's dedup would drop
// one pusher's batch as a retry of the other's.
func TestHTTPClientConcurrentPushes(t *testing.T) {
	var mu sync.Mutex
	keys := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys[r.Header.Get(HeaderSource)+"/"+r.Header.Get(HeaderSeq)]++
		mu.Unlock()
		w.Write([]byte(`{"accepted":1}`))
	}))
	defer srv.Close()

	c := NewHTTPClient(HTTPClientConfig{BaseURL: srv.URL})

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
	if len(keys) != pushers*pushes {
		t.Fatalf("%d pushes arrived under %d distinct keys", pushers*pushes, len(keys))
	}
	for seq := 1; seq <= pushers*pushes; seq++ {
		if k := c.Source() + "/" + strconv.Itoa(seq); keys[k] != 1 {
			t.Fatalf("key %s arrived %d times, want once", k, keys[k])
		}
	}
}

// TestHTTPClientPushCancelMidBackoff is the regression test for prompt
// cancellation: with an 800ms wait pending after the fifth failed
// attempt against an always-failing server, cancelling the context must
// return at once — not after the wait or the remaining attempts.
func TestHTTPClientPushCancelMidBackoff(t *testing.T) {
	t.Parallel() // sleeps out the retry schedule; overlaps the other waiting client tests
	attempted := make(chan struct{}, 16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempted <- struct{}{}
		http.Error(w, "transient", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := NewHTTPClient(HTTPClientConfig{BaseURL: srv.URL, MaxAttempts: 10})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- c.Push(ctx, []Record{{SwarmID: 1, PeerID: 1, Online: true}})
	}()
	const failed = 5
	for i := 0; i < failed; i++ {
		<-attempted
	}
	// The fifth attempt has failed; the client now waits retryWait(5).
	pending := retryWait(failed)
	if pending < 800*time.Millisecond {
		t.Fatalf("wait after attempt %d is %v; the test needs one of at least 800ms", failed, pending)
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Push returned %v, want context.Canceled", err)
		}
		if wait := time.Since(start); wait > pending/2 {
			t.Fatalf("Push took %v to honour cancellation; it sat out the %v wait", wait, pending)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Push still running 5s after cancel")
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

	c := NewHTTPClient(HTTPClientConfig{BaseURL: srv.URL, MaxAttempts: 10})
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
	t.Parallel() // sleeps out the retry schedule; overlaps the other waiting client tests
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
	})
	if err := c.Push(context.Background(), []Record{{SwarmID: 1, PeerID: 1, Online: true}}); err != nil {
		t.Fatalf("Push did not ride through per-attempt timeouts: %v", err)
	}
	if hits.Load() < 3 {
		t.Fatalf("server saw %d attempts, want >= 3", hits.Load())
	}
}
