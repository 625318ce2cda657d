package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"swarmavail/internal/ingest"
)

// The load generator is one process with two connections: one writer
// and one reader. Both are the repo's own clients (ingest.StreamClient,
// ingest.HTTPClient) because monitors use them: they are a layer of the
// measured path.

// oneConnClient is an HTTP client that never holds more than one
// connection to the SUT.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// transport is the writer's connection. A push hands over one frame and
// may block for room in the ack window; frames are acknowledged in
// order.
type transport interface {
	push(recs []ingest.Record) error
	// waitAcked blocks until the n-th push (1-based) is durably
	// acknowledged.
	waitAcked(n uint64) error
	close() error
}

// binTransport is a StreamClient whose batch size equals the frame
// size, so every push is exactly one DATA frame.
type binTransport struct{ sc *ingest.StreamClient }

func (b binTransport) push(recs []ingest.Record) error {
	for _, r := range recs {
		if err := b.sc.Observe(r); err != nil {
			return err
		}
	}
	return nil
}
func (b binTransport) waitAcked(n uint64) error { return b.sc.WaitAcked(n) }
func (b binTransport) close() error             { return b.sc.Close() }

// jsonTransport is HTTPClient.Push: one JSONL batch per request, the
// 200 being the acknowledgement.
type jsonTransport struct {
	ctx  context.Context
	hc   *ingest.HTTPClient
	raw  *http.Client
	mu   sync.Mutex
	cond *sync.Cond
	done uint64
	err  error
}

func (j *jsonTransport) push(recs []ingest.Record) error {
	err := j.hc.Push(j.ctx, recs)
	j.mu.Lock()
	j.done++
	if err != nil && j.err == nil {
		j.err = err
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	return err
}

func (j *jsonTransport) waitAcked(n uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.done < n && j.err == nil {
		j.cond.Wait()
	}
	return j.err
}

func (j *jsonTransport) close() error {
	j.mu.Lock()
	if j.err == nil {
		j.err = ingest.ErrClosed
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	j.raw.CloseIdleConnections()
	return nil
}

func newTransport(ctx context.Context, st *stack, w WriterGroup) transport {
	if w.Transport == "json" {
		raw := oneConnClient()
		j := &jsonTransport{ctx: ctx, raw: raw, hc: ingest.NewHTTPClient(ingest.HTTPClientConfig{
			BaseURL: st.front, Client: raw, MaxAttempts: 1,
		})}
		j.cond = sync.NewCond(&j.mu)
		return j
	}
	return binTransport{ingest.NewStreamClient(ingest.StreamClientConfig{
		Addr: st.frontBin, BatchSize: w.FrameRecords, Window: w.AckWindow,
	})}
}

// querier is the reader's connection: summary and CDF through
// ingest.HTTPClient, the endpoints it has no method for through the
// same single-connection http.Client.
type querier struct {
	hc     *ingest.HTTPClient
	raw    *http.Client
	base   string
	rng    *rand.Rand
	zipf   *rand.Zipf
	swarms int
}

func newQuerier(st *stack, p *Profile, seed int64) *querier {
	raw := oneConnClient()
	q := &querier{
		raw:    raw,
		base:   st.front,
		hc:     ingest.NewHTTPClient(ingest.HTTPClientConfig{BaseURL: st.front, Client: raw, MaxAttempts: 1}),
		rng:    rand.New(rand.NewSource(seed ^ 0x9e37)),
		swarms: p.Swarms,
	}
	if sk := p.Groups.Writers.Skew; sk.Kind == "zipf" {
		q.zipf = rand.NewZipf(q.rng, sk.S, 1, uint64(p.Swarms-1))
	}
	return q
}

func (q *querier) close() { q.raw.CloseIdleConnections() }

// do issues one request of the named kind. Anything but a 200 with a
// readable body is an error. For "summary" it returns the served
// events count.
func (q *querier) do(ctx context.Context, endpoint string) (events uint64, err error) {
	switch endpoint {
	case "summary":
		resp, err := q.hc.FetchSummary(ctx)
		if err != nil {
			return 0, err
		}
		return resp.Events, nil
	case "cdf":
		_, err := q.hc.FetchCDF(ctx, nil)
		return 0, err
	case "window":
		return 0, q.get(ctx, "/v1/availability/window?d=7")
	default: // "swarm"
		id := q.rng.Intn(q.swarms)
		if q.zipf != nil {
			id = int(q.zipf.Uint64())
		}
		return 0, q.get(ctx, "/v1/swarm/"+strconv.Itoa(id))
	}
}

func (q *querier) get(ctx context.Context, path string) error {
	_, err := fetch(ctx, q.raw, q.base+path)
	return err
}

// fetch GETs url and returns the body of a 200.
func fetch(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// frameRec is one frame's timeline. t0 is when it was due (open loop)
// or handed off (closed loop); cum is what /v1/summary's events reads
// once the frame is applied.
type frameRec struct {
	t0, handed, ackAt, freshAt time.Time
	cum                        uint64
}

// windowResult is everything one measured window observed.
type windowResult struct {
	start   time.Time
	nominal time.Duration // the window's length
	wall    time.Duration // start → last ack
	frames  []frameRec
	records uint64 // records acknowledged

	queryMS     map[string][]float64 // per endpoint, under write load only
	queryFailed int
	queries     int

	blocked  time.Duration // writer time inside push
	schedLag []float64     // open loop: hand-off minus due, ms
	genCPU   float64       // load generator CPU seconds over wall

	before, after usage
	// Traced windows only: /debug/vars of every process around the
	// window, and maxima of gauges sampled during it.
	varsBefore, varsAfter map[string]map[string]float64
	queueDepthMax         float64
	snapshotAgeMaxS       float64
}

// load is one run's load generator state.
type load struct {
	ctx  context.Context
	gen  *generator
	prof *Profile
	// st is the stack being measured and q the reader's connection to
	// it; stacks are all the run made, for cleanUp.
	st     *stack
	q      *querier
	stacks []*stack
	// events is what the SUT's summary must read once everything
	// acknowledged so far is applied.
	events uint64
	// attempted/failed count pushes and queries over the whole run.
	attempted, failed int
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWindow drives the writer for dur beside the reader and returns
// what it observed. With tr set the window is traced: client calls
// record spans, and the SUT's metrics are scraped around the window and
// sampled four times a second during it.
func (l *load) runWindow(spec WindowSpec, dur time.Duration, tr *tracer) (*windowResult, error) {
	w := l.prof.Groups.Writers
	res := &windowResult{nominal: dur, queryMS: map[string][]float64{}}
	tp := newTransport(l.ctx, l.st, w)
	defer tp.close()

	var err error
	if tr != nil {
		if res.varsBefore, err = l.st.scrapeAll(); err != nil {
			return nil, err
		}
	}
	if res.before, err = l.st.usage(); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	res.start = time.Now()

	var (
		mu       sync.Mutex // frames, freshIdx, res.query*
		frames   = make([]frameRec, 0, 1<<14)
		freshIdx int
		loaded   atomic.Bool // the writer is still sending
		bg       sync.WaitGroup
		stop     = make(chan struct{})
	)
	loaded.Store(true)

	// Reader: closed loop with think time, cycling through the mix. A
	// summary answer marks every frame it covers as queryable.
	reader := func() {
		defer bg.Done()
		mix := l.prof.Groups.Queriers.Mix
		think := time.Duration(l.prof.Groups.Queriers.ThinkMS) * time.Millisecond
		for i := 0; ; i++ {
			ep := mix[i%len(mix)]
			start := time.Now()
			events, err := l.q.do(l.ctx, ep)
			end := time.Now()
			mu.Lock()
			res.queries++
			switch {
			case err != nil:
				res.queryFailed++
			case loaded.Load():
				res.queryMS[ep] = append(res.queryMS[ep], ms(end.Sub(start)))
			}
			if err == nil && ep == "summary" {
				for freshIdx < len(frames) && frames[freshIdx].cum <= events {
					f := &frames[freshIdx]
					f.freshAt = end
					tr.add("client.freshness", "f"+strconv.Itoa(freshIdx), 0, f.t0, end)
					freshIdx++
				}
			}
			mu.Unlock()
			tr.add("client.query."+ep, "q"+strconv.Itoa(i), 0, start, end)
			select {
			case <-stop:
				return
			case <-time.After(think):
			}
		}
	}
	if spec.Queriers {
		bg.Add(1)
		go reader()
	}

	// Sampler (traced windows): gauges whose maximum matters.
	if tr != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				all, err := l.st.scrapeAll()
				if err != nil {
					continue
				}
				mu.Lock()
				for _, vars := range all {
					for k, v := range vars {
						if strings.HasPrefix(k, "ingest_shard_queue_depth") {
							res.queueDepthMax = max(res.queueDepthMax, v)
						}
					}
					res.snapshotAgeMaxS = max(res.snapshotAgeMaxS, vars["ingest_snapshot_age_seconds"])
				}
				mu.Unlock()
			}
		}()
	}

	// Acker: stamps each frame when the cumulative ack covers it. The
	// writer announces a frame before pushing it; at most AckWindow
	// frames are unacknowledged, which sizes the channel.
	ackCh := make(chan int, w.AckWindow+1)
	ackErr := make(chan error, 1)
	go func() {
		var first error
		for k := range ackCh {
			if first != nil {
				continue
			}
			if err := tp.waitAcked(uint64(k + 1)); err != nil {
				first = err
				continue
			}
			now := time.Now()
			mu.Lock()
			f := &frames[k]
			f.ackAt = now
			t0, handed := f.t0, f.handed
			mu.Unlock()
			if tr != nil {
				req := "f" + strconv.Itoa(k)
				id := tr.add("client.frame", req, 0, t0, now)
				if handed.IsZero() { // acknowledged before push returned
					handed = now
				}
				tr.add("client.ack_wait", req, id, handed, now)
			}
		}
		ackErr <- first
	}()

	// Writer.
	recs := make([]ingest.Record, w.FrameRecords)
	start := res.start
	deadline := start.Add(dur)
	var period time.Duration
	if spec.RatePerS > 0 {
		period = time.Duration(float64(w.FrameRecords) / float64(spec.RatePerS) * float64(time.Second))
	}
	var pushErr error
	for k := 0; pushErr == nil; k++ {
		if pushErr = l.ctx.Err(); pushErr != nil {
			break
		}
		var t0 time.Time
		if spec.RatePerS > 0 {
			due := start.Add(time.Duration(k) * period)
			if !due.Before(deadline) {
				break
			}
			l.gen.fill(recs)
			time.Sleep(time.Until(due))
			t0 = due
			res.schedLag = append(res.schedLag, ms(time.Since(due)))
		} else {
			if !time.Now().Before(deadline) {
				break
			}
			l.gen.fill(recs)
			t0 = time.Now()
		}
		l.events += uint64(len(recs))
		mu.Lock()
		frames = append(frames, frameRec{t0: t0, cum: l.events})
		mu.Unlock()
		ackCh <- k
		pushStart := time.Now()
		pushErr = tp.push(recs)
		handed := time.Now()
		res.blocked += handed.Sub(pushStart)
		mu.Lock()
		frames[k].handed = handed
		mu.Unlock()
		tr.add("client.push", "f"+strconv.Itoa(k), 0, pushStart, handed)
	}
	if pushErr != nil {
		tp.close() // unblocks the acker
	}
	close(ackCh)
	err = <-ackErr
	loaded.Store(false)
	res.wall = time.Since(start)
	res.genCPU = selfCPU() - cpu0
	if err == nil {
		err = pushErr
	}

	// Let the reader see the last frame become queryable, then stop it.
	for wait := time.Now(); err == nil && spec.Queriers; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		done := freshIdx == len(frames)
		mu.Unlock()
		if done || time.Since(wait) > 10*time.Second {
			break
		}
	}
	close(stop)
	bg.Wait()

	l.attempted += len(frames) + res.queries
	l.failed += res.queryFailed
	if err != nil {
		l.failed++
		return nil, fmt.Errorf("window %s: push: %w", spec.Name, err)
	}
	if res.after, err = l.st.usage(); err != nil {
		return nil, err
	}
	if tr != nil {
		if res.varsAfter, err = l.st.scrapeAll(); err != nil {
			return nil, err
		}
	}
	res.frames = frames
	res.records = uint64(len(frames) * w.FrameRecords)
	return res, nil
}

// sendTail streams n tail records closed loop with no reader beside it
// (the crash cycles' filler) and returns once all are acknowledged.
func (l *load) sendTail(n int) error {
	w := l.prof.Groups.Writers
	tp := newTransport(l.ctx, l.st, w)
	defer tp.close()
	recs := make([]ingest.Record, w.FrameRecords)
	frames := (n + w.FrameRecords - 1) / w.FrameRecords
	for k := 0; k < frames; k++ {
		if err := l.ctx.Err(); err != nil {
			return err
		}
		l.gen.fill(recs)
		l.attempted++
		if err := tp.push(recs); err != nil {
			l.failed++
			return fmt.Errorf("crash tail: push: %w", err)
		}
		l.events += uint64(len(recs))
	}
	if err := tp.waitAcked(uint64(frames)); err != nil {
		l.failed++
		return fmt.Errorf("crash tail: ack: %w", err)
	}
	return nil
}

// preload streams the generator's preload through the front's binary
// listener (registrations only travel on the binary codec) and returns
// once every frame is acknowledged.
func (l *load) preload() error {
	w := l.prof.Groups.Writers
	sc := ingest.NewStreamClient(ingest.StreamClientConfig{
		Addr: l.st.frontBin, BatchSize: w.FrameRecords, Window: w.AckWindow,
	})
	var n int
	err := l.gen.preload(func(op ingest.Op) error {
		if n++; n%w.FrameRecords == 0 && l.ctx.Err() != nil {
			return l.ctx.Err()
		}
		return sc.Put(op)
	})
	if err != nil {
		sc.Close()
		return fmt.Errorf("preload: %w", err)
	}
	if err := sc.Close(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	l.events = l.gen.preloadEvents()
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
