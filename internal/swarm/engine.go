package swarm

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"swarmavail/internal/des"
	"swarmavail/internal/dist"
	"swarmavail/internal/obs"
)

// node is a participant: the publisher or a peer. Peers arrive wanting
// the whole content; the publisher holds everything and only uploads.
type node struct {
	id          int
	publisher   bool
	class       int
	arrive      float64
	uploadCap   float64
	downloadCap float64 // +Inf when unconstrained
	online      bool

	pieces []bool
	have   int

	outgoing     []*transfer       // stable order for determinism
	incoming     map[int]*transfer // by piece
	incomingFrom map[int]int       // active transfers per uploader id

	peerIdx int // index into engine.peers, -1 when offline
	recIdx  int // index into engine.records (peers only)

	lastProgress float64 // last time a piece landed (abandonment clock)
	patience     float64 // sampled give-up threshold (0 = patient)
}

// transfer is one in-flight piece upload. Rates are re-divided whenever
// the uploader's number of concurrent uploads changes, so a node's full
// upload capacity is always in use (progressive-download model of an
// upload-constrained swarm).
type transfer struct {
	up, down   *node
	piece      int
	remaining  float64 // KB left to move
	rate       float64 // current KBps
	lastUpdate float64
	ev         *des.Event
}

type engine struct {
	cfg Config
	sim *des.Simulator
	rng *rand.Rand

	totalPieces int
	pieceKB     float64
	classPick   *dist.Categorical

	publisher *node
	peers     []*node // online peers (leechers + lingering seeds)
	nextID    int

	copies  []int // per piece: holders among online peers (publisher excluded)
	missing int   // pieces with zero peer copies

	available  bool
	availStart float64
	avail      []dist.Interval

	pubOnAt     float64
	pubSessions []dist.Interval

	records  []PeerRecord
	arrivals int

	deliveredKB float64
	wastedKB    float64

	firstCompletionSeen bool
}

// Run simulates one swarm and returns its full result. It is
// deterministic in Config.Seed.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	e := &engine{
		cfg:         c,
		sim:         des.New(),
		rng:         dist.NewRand(c.Seed),
		totalPieces: c.NumPieces(),
		pieceKB:     c.PieceSizeKB,
	}
	weights := make([]float64, len(c.Files))
	var agg float64
	for i, f := range c.Files {
		weights[i] = f.Lambda
		agg += f.Lambda
	}
	if agg <= 0 {
		for i := range weights {
			weights[i] = 1
		}
	}
	e.classPick = dist.NewCategorical(weights)
	e.copies = make([]int, e.totalPieces)
	e.missing = e.totalPieces

	e.publisher = &node{
		id:          -1,
		publisher:   true,
		uploadCap:   c.PublisherUploadKBps,
		downloadCap: math.Inf(1),
		pieces:      nil, // implicit: holds everything
		have:        e.totalPieces,
		peerIdx:     -1,
	}

	start := time.Now()
	e.publisherOn()
	e.scheduleNextArrival()
	e.sim.RunUntil(c.Horizon)
	res := e.finish()
	e.instrument(res, time.Since(start))
	return res, nil
}

// instrument adds the run's outcome to the swarm_sim_* series on
// cfg.Metrics (no-op without a registry). Each Run accumulates into the
// same series, so over a sweep the counters read as campaign totals.
func (e *engine) instrument(res *Result, wall time.Duration) {
	reg := e.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Counter("swarm_sim_runs_total").Inc()
	reg.Counter("swarm_sim_events_total").Add(e.sim.Fired())
	reg.Counter("swarm_sim_arrivals_total").Add(uint64(e.arrivals))
	reg.Counter("swarm_sim_completions_total").Add(uint64(res.CompletedCount()))
	reg.Counter("swarm_sim_abandons_total").Add(uint64(res.AbandonedCount()))
	reg.Counter("swarm_sim_busy_periods_total").Add(uint64(len(res.AvailableIntervals)))
	reg.Gauge("swarm_sim_delivered_kb").Add(res.DeliveredKB)
	reg.Gauge("swarm_sim_wasted_kb").Add(res.WastedKB)
	reg.Histogram("swarm_sim_run_seconds", obs.LatencyBuckets).Observe(wall.Seconds())
	if s := wall.Seconds(); s > 0 {
		reg.Gauge("swarm_sim_events_per_second").Set(float64(e.sim.Fired()) / s)
	}
}

// ---------------------------------------------------------------------------
// Arrivals and departures.

func (e *engine) scheduleNextArrival() {
	if e.arrivals >= e.cfg.MaxArrivals {
		return
	}
	var next float64
	if e.cfg.Arrivals != nil {
		next = e.cfg.Arrivals.NextAfter(e.rng, e.sim.Now())
	} else {
		next = dist.PoissonProcess{Rate: e.cfg.AggregateLambda()}.NextAfter(e.rng, e.sim.Now())
	}
	cutoff := e.cfg.Horizon
	if e.cfg.ArrivalCutoff > 0 && e.cfg.ArrivalCutoff < cutoff {
		cutoff = e.cfg.ArrivalCutoff
	}
	if math.IsInf(next, 1) || next > cutoff {
		return
	}
	e.sim.Schedule(next, func() {
		e.admitPeer()
		e.scheduleNextArrival()
	})
}

func (e *engine) admitPeer() {
	p := &node{
		id:           e.nextID,
		class:        e.classPick.Sample(e.rng),
		arrive:       e.sim.Now(),
		uploadCap:    e.cfg.PeerUpload.Sample(e.rng),
		downloadCap:  math.Inf(1),
		online:       true,
		pieces:       make([]bool, e.totalPieces),
		incoming:     make(map[int]*transfer),
		incomingFrom: make(map[int]int),
		recIdx:       len(e.records),
	}
	if p.uploadCap <= 0 {
		p.uploadCap = 1 // defensive floor; capacity distributions are positive
	}
	if e.cfg.PeerDownload != nil {
		p.downloadCap = e.cfg.PeerDownload.Sample(e.rng)
		if p.downloadCap <= 0 {
			p.downloadCap = 1
		}
	}
	e.nextID++
	e.arrivals++
	p.peerIdx = len(e.peers)
	e.peers = append(e.peers, p)
	e.records = append(e.records, PeerRecord{
		ID:         p.id,
		Class:      p.class,
		Arrive:     p.arrive,
		Complete:   math.Inf(1),
		Depart:     math.Inf(1),
		UploadKBps: p.uploadCap,
	})
	if e.cfg.AbandonMeanSeconds > 0 {
		p.lastProgress = p.arrive
		p.patience = e.rng.ExpFloat64() * e.cfg.AbandonMeanSeconds
		e.sim.After(p.patience, func() { e.checkAbandon(p) })
	}
	e.dispatchToward(p)
}

// checkAbandon fires when a peer's patience would expire if it had made
// no progress; progress (a delivered piece) resets the clock, so the
// check reschedules itself until the peer truly stalls out. Impatience
// thus models §3.3.1's semantics: peers give up when the content is
// effectively unavailable to them, not mid-download.
func (e *engine) checkAbandon(p *node) {
	if p.peerIdx < 0 || p.have == e.totalPieces || p.patience <= 0 {
		return
	}
	idle := e.sim.Now() - p.lastProgress
	if idle+1e-9 >= p.patience {
		e.records[p.recIdx].Abandoned = true
		e.departPeer(p)
		return
	}
	e.sim.Schedule(p.lastProgress+p.patience, func() { e.checkAbandon(p) })
}

func (e *engine) departPeer(p *node) {
	if p.peerIdx < 0 {
		return // already gone
	}
	// Abort uploads in progress from this peer; the orphaned downloaders
	// get a chance to re-source their pieces below.
	var orphaned []*node
	for len(p.outgoing) > 0 {
		orphaned = append(orphaned, p.outgoing[0].down)
		e.abortTransfer(p.outgoing[0])
	}
	// Abort downloads in progress to this peer, releasing each uploader.
	var freedUploaders []*node
	if len(p.incoming) > 0 {
		ts := make([]*transfer, 0, len(p.incoming))
		for _, t := range p.incoming {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].piece < ts[j].piece })
		ups := map[*node]bool{}
		for _, t := range ts {
			e.wastedKB += e.progressedKB(t)
			e.removeTransfer(t)
			ups[t.up] = true
		}
		// Deterministic order: publisher first, then by id.
		for u := range ups {
			freedUploaders = append(freedUploaders, u)
		}
		sort.Slice(freedUploaders, func(i, j int) bool {
			return freedUploaders[i].id < freedUploaders[j].id
		})
		for _, u := range freedUploaders {
			e.updateRates(u)
		}
	}
	// Remove from the online set (swap-remove).
	last := len(e.peers) - 1
	e.peers[p.peerIdx] = e.peers[last]
	e.peers[p.peerIdx].peerIdx = p.peerIdx
	e.peers = e.peers[:last]
	p.peerIdx = -1
	p.online = false
	// Withdraw piece copies.
	for i, has := range p.pieces {
		if has {
			e.copies[i]--
			if e.copies[i] == 0 {
				e.missing++
			}
		}
	}
	e.records[p.recIdx].Depart = e.sim.Now()
	e.refreshAvailability()
	// Freed uploader slots and orphaned downloaders may admit new work.
	for _, u := range freedUploaders {
		e.tryStartAll(u)
	}
	for _, d := range orphaned {
		e.dispatchToward(d)
	}
}

// ---------------------------------------------------------------------------
// Publisher lifecycle.

func (e *engine) publisherOn() {
	e.publisher.online = true
	e.pubOnAt = e.sim.Now()
	e.refreshAvailability()
	if e.cfg.PublisherMode == PublisherOnOff {
		stay := e.cfg.PublisherOn.Sample(e.rng)
		e.sim.After(stay, e.publisherOff)
	}
	e.tryStartAll(e.publisher)
}

func (e *engine) publisherOff() {
	if !e.publisher.online {
		return
	}
	e.publisher.online = false
	var orphaned []*node
	for len(e.publisher.outgoing) > 0 {
		orphaned = append(orphaned, e.publisher.outgoing[0].down)
		e.abortTransfer(e.publisher.outgoing[0])
	}
	e.pubSessions = append(e.pubSessions, dist.Interval{Start: e.pubOnAt, End: e.sim.Now()})
	e.refreshAvailability()
	if e.cfg.PublisherMode == PublisherOnOff {
		gap := e.cfg.PublisherOff.Sample(e.rng)
		e.sim.After(gap, e.publisherOn)
	}
	for _, d := range orphaned {
		e.dispatchToward(d)
	}
}

// ---------------------------------------------------------------------------
// Transfers.

func (e *engine) has(u *node, piece int) bool {
	if u.publisher {
		return true
	}
	return u.pieces[piece]
}

// Dispatch is event-targeted: a new transfer (u → d) only becomes
// possible when d arrives, u gains a piece or a slot, d's in-flight
// claim on a piece aborts, or the publisher returns. Each of those
// events triggers exactly the scans it can affect (tryStartAll on the
// uploader side, dispatchToward on the downloader side), so the engine
// never rescans the whole swarm on unrelated events.

// tryStartAll starts as many uploads from u as its slots and the demand
// admit.
func (e *engine) tryStartAll(u *node) {
	if u.publisher && !u.online {
		return
	}
	if !u.publisher && u.peerIdx < 0 {
		return
	}
	if u.have == 0 {
		return
	}
	for len(u.outgoing) < e.cfg.MaxUploads && e.tryStart(u) {
	}
}

// dispatchToward attempts to start one transfer to d from every willing
// uploader.
func (e *engine) dispatchToward(d *node) {
	if d.peerIdx < 0 || d.have == e.totalPieces {
		return
	}
	if e.publisher.online {
		e.tryStartPair(e.publisher, d)
	}
	for _, u := range e.peers {
		if u != d && u.have > 0 {
			e.tryStartPair(u, d)
		}
	}
}

// tryStart attempts to begin one upload from u; it reports success.
func (e *engine) tryStart(u *node) bool {
	if len(u.outgoing) >= e.cfg.MaxUploads {
		return false
	}
	// Collect interested downloaders: online leechers missing a piece u
	// has, with no active transfer from u.
	var eligible []*node
	for _, d := range e.peers {
		if d == u || d.have == e.totalPieces {
			continue
		}
		if d.incomingFrom[u.id] > 0 {
			continue
		}
		if e.useful(u, d) {
			eligible = append(eligible, d)
		}
	}
	if len(eligible) == 0 {
		return false
	}
	d := eligible[e.rng.Intn(len(eligible))]
	return e.startTransfer(u, d)
}

// tryStartPair starts one transfer u → d if eligible.
func (e *engine) tryStartPair(u, d *node) bool {
	if len(u.outgoing) >= e.cfg.MaxUploads || d.have == e.totalPieces || d.incomingFrom[u.id] > 0 {
		return false
	}
	return e.startTransfer(u, d) // false, drawing nothing, when u has nothing for d
}

func (e *engine) startTransfer(u, d *node) bool {
	piece := PickPiece(e.totalPieces, func(i int) bool { return e.sendable(u, d, i) },
		e.copies, e.cfg.RandomPieceSelection, e.rng)
	if piece < 0 {
		return false
	}
	t := &transfer{
		up:         u,
		down:       d,
		piece:      piece,
		remaining:  e.pieceKB,
		lastUpdate: e.sim.Now(),
	}
	u.outgoing = append(u.outgoing, t)
	d.incoming[piece] = t
	d.incomingFrom[u.id]++
	e.updateRates(u)
	e.updateRates(d)
	return true
}

// sendable reports whether u can send d piece i: d lacks it, has no
// transfer of it in flight, and u holds it.
func (e *engine) sendable(u, d *node, i int) bool {
	return !d.pieces[i] && d.incoming[i] == nil && e.has(u, i)
}

// useful reports whether u holds any piece it could send d.
func (e *engine) useful(u, d *node) bool {
	for i := 0; i < e.totalPieces; i++ {
		if e.sendable(u, d, i) {
			return true
		}
	}
	return false
}

// PickPiece is the piece picker of both the simulator and the live node:
// among the pieces 0..n-1 that are eligible it returns the one with the
// fewest copies (rarest-first), breaking ties uniformly with rng. With
// random set every eligible piece is a tie (the RandomPieceSelection
// ablation). It returns -1, drawing nothing, when no piece is eligible.
func PickPiece(n int, eligible func(int) bool, copies []int, random bool, rng *rand.Rand) int {
	best := math.MaxInt
	var ties []int
	for i := 0; i < n; i++ {
		if !eligible(i) {
			continue
		}
		c := 0
		if !random {
			c = copies[i]
		}
		if c < best {
			best, ties = c, ties[:0]
		}
		if c == best {
			ties = append(ties, i)
		}
	}
	if len(ties) == 0 {
		return -1
	}
	return ties[rng.Intn(len(ties))]
}

// targetRate is the per-transfer rate under endpoint fair sharing: the
// uploader splits its capacity across its uploads and the downloader
// splits its (possibly infinite) download cap across its downloads; the
// transfer moves at the smaller share.
func (e *engine) targetRate(t *transfer) float64 {
	up := t.up.uploadCap / float64(len(t.up.outgoing))
	down := math.Inf(1)
	if !math.IsInf(t.down.downloadCap, 1) && len(t.down.incoming) > 0 {
		down = t.down.downloadCap / float64(len(t.down.incoming))
	}
	return math.Min(up, down)
}

// updateRates refreshes every transfer touching n (its uploads and its
// downloads), folding in progress made at the old rates and
// rescheduling completions. Rate changes are local to the two endpoints
// of each transfer, so refreshing both endpoints of a changed transfer
// suffices.
func (e *engine) updateRates(n *node) {
	now := e.sim.Now()
	refresh := func(t *transfer) {
		if t.ev != nil {
			t.remaining -= t.rate * (now - t.lastUpdate)
			if t.remaining < 0 {
				t.remaining = 0
			}
			e.sim.Cancel(t.ev)
		}
		t.rate = e.targetRate(t)
		t.lastUpdate = now
		tt := t
		t.ev = e.sim.After(t.remaining/t.rate, func() { e.completeTransfer(tt) })
	}
	for _, t := range n.outgoing {
		refresh(t)
	}
	if len(n.incoming) > 0 {
		// Deterministic order for the map.
		pieces := make([]int, 0, len(n.incoming))
		for piece := range n.incoming {
			pieces = append(pieces, piece)
		}
		sort.Ints(pieces)
		for _, piece := range pieces {
			refresh(n.incoming[piece])
		}
	}
}

// removeTransfer unlinks t from both endpoints without rate updates.
func (e *engine) removeTransfer(t *transfer) {
	if t.ev != nil {
		e.sim.Cancel(t.ev)
		t.ev = nil
	}
	for i, o := range t.up.outgoing {
		if o == t {
			t.up.outgoing = append(t.up.outgoing[:i], t.up.outgoing[i+1:]...)
			break
		}
	}
	if t.down.incoming[t.piece] == t {
		delete(t.down.incoming, t.piece)
	}
	if t.down.incomingFrom[t.up.id] > 0 {
		t.down.incomingFrom[t.up.id]--
		if t.down.incomingFrom[t.up.id] == 0 {
			delete(t.down.incomingFrom, t.up.id)
		}
	}
}

// progressedKB returns how much of the piece t has moved so far.
func (e *engine) progressedKB(t *transfer) float64 {
	rem := t.remaining
	if t.ev != nil {
		rem -= t.rate * (e.sim.Now() - t.lastUpdate)
	}
	if rem < 0 {
		rem = 0
	}
	done := e.pieceKB - rem
	if done < 0 {
		done = 0
	}
	return done
}

// abortTransfer cancels t mid-flight (partial piece data is discarded,
// as a real client would re-request the piece).
func (e *engine) abortTransfer(t *transfer) {
	e.wastedKB += e.progressedKB(t)
	e.removeTransfer(t)
	e.updateRates(t.up)
	e.updateRates(t.down)
}

func (e *engine) completeTransfer(t *transfer) {
	t.ev = nil
	e.deliveredKB += e.pieceKB
	e.removeTransfer(t)
	d := t.down
	if !d.pieces[t.piece] {
		d.pieces[t.piece] = true
		d.have++
		d.lastProgress = e.sim.Now()
		e.copies[t.piece]++
		if e.copies[t.piece] == 1 {
			e.missing--
		}
	}
	e.updateRates(t.up)
	e.updateRates(d)
	if d.have == e.totalPieces {
		e.completePeer(d)
	}
	e.refreshAvailability()
	// The uploader freed a slot; the downloader may now serve its new
	// piece to others (or, having departed, these become no-ops).
	e.tryStartAll(t.up)
	e.tryStartAll(d)
}

func (e *engine) completePeer(d *node) {
	e.records[d.recIdx].Complete = e.sim.Now()
	// Any residual incoming bookkeeping is gone by construction: the last
	// piece just landed and duplicates are never scheduled.
	if e.cfg.PublisherMode == PublisherUntilFirstCompletion && !e.firstCompletionSeen {
		e.firstCompletionSeen = true
		e.publisherOff()
	}
	stay := e.cfg.DepartureLagSeconds
	if e.cfg.LingerMeanSeconds > 0 {
		stay += e.rng.ExpFloat64() * e.cfg.LingerMeanSeconds
	}
	if stay > 0 {
		e.sim.After(stay, func() { e.departPeer(d) })
		return
	}
	e.departPeer(d)
}

// ---------------------------------------------------------------------------
// Availability accounting.

func (e *engine) refreshAvailability() {
	now := e.sim.Now()
	avail := e.publisher.online || e.missing == 0
	if avail == e.available {
		return
	}
	if avail {
		e.availStart = now
	} else {
		e.avail = append(e.avail, dist.Interval{Start: e.availStart, End: now})
	}
	e.available = avail
}

func (e *engine) finish() *Result {
	now := e.cfg.Horizon
	if e.available {
		e.avail = append(e.avail, dist.Interval{Start: e.availStart, End: now})
	}
	if e.publisher.online {
		e.pubSessions = append(e.pubSessions, dist.Interval{Start: e.pubOnAt, End: now})
	}
	return &Result{
		Config:             e.cfg,
		Records:            e.records,
		PublisherSessions:  dist.MergeIntervals(e.pubSessions),
		AvailableIntervals: dist.MergeIntervals(e.avail),
		TotalPieces:        e.totalPieces,
		Horizon:            e.cfg.Horizon,
		DeliveredKB:        e.deliveredKB,
		WastedKB:           e.wastedKB,
	}
}
