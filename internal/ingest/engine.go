package ingest

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
)

// ErrClosed is returned by writes submitted after Close.
var ErrClosed = errors.New("ingest: engine closed")

// codecError is submit's refusal of a frame that does not decode: a
// verdict on its bytes, which a resend cannot change — unlike a failed
// journal append or a closing engine, which refuse the write, not the
// frame.
type codecError struct{ error }

func (e codecError) Unwrap() error { return e.error }

// batchPool recycles the []Op batch buffers that travel through the
// shard queues. A buffer's life cycle is: Writer/Submit fills it →
// ownership transfers through the queue (no copy) → the shard applies
// it and puts it back. Elements are cleared before pooling so a parked
// buffer cannot pin registration payloads for the GC.
//
// The free list is a bounded channel rather than a sync.Pool: the
// ingest hot path allocates little else, so with a small live heap the
// GC runs every few MB and would empty a sync.Pool on every cycle —
// turning each delivery into a fresh make([]Op). The channel's buffers
// survive GC; when it is full, put drops the buffer (bounding retained
// memory at init's size), and the zero value degrades to plain
// allocation.
type batchPool struct {
	free chan []Op
}

// init sizes the free list; called once before the engine starts.
func (p *batchPool) init(size int) { p.free = make(chan []Op, size) }

func (p *batchPool) get(capHint int) []Op {
	select {
	case b := <-p.free:
		return b[:0]
	default:
		return make([]Op, 0, capHint)
	}
}

func (p *batchPool) put(b []Op) {
	if cap(b) == 0 {
		return
	}
	clear(b) // drop aux pointers before parking
	b = b[:0]
	select {
	case p.free <- b:
	default: // full: let the GC have it
	}
}

// Engine is the sharded streaming-ingestion engine. Writes scale
// across shards (one state-owning goroutine each); aggregate reads are
// served from consistent per-shard snapshots merged on demand, per-swarm
// reads on the swarm's home shard.
//
// Lifecycle: New → any number of concurrent Submit/Writer producers and
// Summary/Swarm readers → Flush (barrier) → Close. Close drains every
// queued batch before returning and is idempotent; writes racing or
// following Close return ErrClosed (never a panic), and reads keep
// working after Close, serving the final drained state.
//
// The lifecycle fast path is lock-free: producers and readers pay one
// atomic increment, one atomic flag load, and one atomic decrement per
// queue interaction. Producers also commit one at a time under the
// commit lock (submit); readers take no lock. Close is the only slow
// path: it flips the closed flag, waits the in-flight queue users out,
// closes the queues, and joins the shard goroutines.
type Engine struct {
	cfg     Config
	shards  []*shard
	metrics *metrics
	pool    batchPool
	wg      sync.WaitGroup

	// journal, when non-nil, makes every accepted batch durable before
	// it reaches a shard queue. Set only by OpenDurable, after recovery
	// replay and before any producer exists, so the unsynchronised read
	// in submit is safe.
	journal *journal

	// commitMu is the commit lock. submit holds it from the dedup check
	// through the journal append, the shard sends and the marks, so the
	// journal's order is the order in which the shards apply; Checkpoint
	// holds it for its capture only. It guards commit (the submit core's
	// scratch) and dedup (the per-source exactly-once windows, recovered
	// on a durable engine from the checkpoint and keyed WAL frames
	// before any producer exists).
	commitMu sync.Mutex
	commit   commit
	dedup    dedupState

	// closed is the lifecycle fast-path flag: once set, no new queue
	// user may enter. inflight counts producers and readers currently
	// touching the shard queues; Close waits for it to reach zero
	// before closing the queues, so a queue can never be written after
	// it is closed. drained carries the wakeup from the exit that takes
	// inflight to zero after closed is set, so Close can sleep instead
	// of spinning (buffered so the sender never blocks; a stale token
	// costs Close one extra loop iteration).
	closed   atomic.Bool
	inflight atomic.Int64
	drained  chan struct{}

	// snapCache memoizes the merged engine-wide read snapshot keyed by
	// the per-shard snapshot pointers, and snapNonce makes ETags unique
	// per engine incarnation (see snapshot.go).
	snapCache atomic.Pointer[mergedSnap]
	snapNonce string

	// closeMu serialises Close (slow path only — never touched by
	// writes or reads). stopped (under closeMu) records a completed
	// drain; done is closed when the drain completes, and a post-close
	// onShards blocks on it before touching shard state in place.
	closeMu sync.Mutex
	stopped bool
	done    chan struct{}
}

// New starts an engine with cfg (zero fields take defaults). For an
// engine that survives restarts, see OpenDurable.
func New(cfg Config) *Engine {
	e := newEngine(cfg)
	e.start()
	return e
}

// newEngine constructs an engine without starting its shard goroutines,
// so OpenDurable can install checkpointed state into the shard maps
// while they are still single-threaded.
func newEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults(runtime.GOMAXPROCS(0))
	e := &Engine{
		cfg:       cfg,
		metrics:   newMetrics(cfg.Metrics, cfg.Shards),
		done:      make(chan struct{}),
		drained:   make(chan struct{}, 1),
		snapNonce: snapNonce(),
	}
	e.commit.parts = make([][]Op, cfg.Shards)
	// Enough parked buffers for every queue slot plus the batches being
	// filled and decoded at the edges.
	e.pool.init(cfg.Shards*cfg.queueDepth + 2*cfg.Shards + 8)
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(i, cfg.queueDepth, e.metrics, &e.pool, cfg.maxAge)
		s := e.shards[i]
		e.metrics.reg.GaugeFunc("ingest_shard_queue_depth",
			func() float64 { return float64(len(s.in)) },
			obs.L("shard", strconv.Itoa(i)))
	}
	e.registerSnapshotGauges()
	return e
}

// start launches the shard goroutines.
func (e *Engine) start() {
	e.wg.Add(len(e.shards))
	for _, s := range e.shards {
		go func(s *shard) {
			defer e.wg.Done()
			s.run()
		}(s)
	}
}

// Registry returns the registry the engine's instruments live on —
// cfg.Metrics if one was supplied, the engine's private registry
// otherwise.
func (e *Engine) Registry() *obs.Registry { return e.metrics.reg }

// Shards returns the shard count.
func (e *Engine) Shards() int { return e.cfg.Shards }

func (e *Engine) shardFor(swarmID int) *shard {
	return e.shards[shardIndex(swarmID, len(e.shards))]
}

// enter registers the caller as an in-flight queue user. It returns
// false when the engine is closed. The memory-order argument for why a
// queue send after a successful enter can never hit a closed channel:
// the increment of inflight and the load of closed are sequentially
// consistent, so if enter loaded closed == false, Close's flag store
// had not happened yet, and Close's subsequent wait observes this
// caller's increment and stalls until the matching exit.
func (e *Engine) enter() bool {
	e.inflight.Add(1)
	if e.closed.Load() {
		// Bounce through exit so a bouncing entrant still wakes a
		// Close that observed its increment.
		e.exit()
		return false
	}
	return true
}

// exit releases the in-flight registration taken by enter. The exit
// that takes inflight to zero after Close set the flag sends the drain
// wakeup (non-blocking: the channel is buffered and Close re-checks the
// count, so a stale token is harmless).
func (e *Engine) exit() {
	if e.inflight.Add(-1) == 0 && e.closed.Load() {
		select {
		case e.drained <- struct{}{}:
		default:
		}
	}
}

// batch is one element of a submit group: ops under an optional
// idempotency key (source == "" is the degenerate no-dedup case), and
// how they arrive.
type batch struct {
	source string
	seq    uint64
	// ops are the batch's decoded ops. Nil marks a wire-only batch: the
	// core parses the key out of wire and decodes the ops itself, into
	// one scratch reused across the group.
	ops []Op
	// wire, when non-nil, is the already-verified encoding of exactly
	// this batch and is journaled verbatim (never re-encoded); otherwise
	// the core encodes the frame itself into a pooled buffer.
	wire []byte
	body []byte // the ops payload inside wire, set by the core
	// pooled says ops is a pool-owned batch wholly for shard: ownership
	// transfers to that shard (or back to the pool on every path that
	// does not send it). Otherwise ops stays with the caller and is
	// copied into pooled per-shard batches.
	pooled bool
	shard  int
	// applied is the verdict, meaningful for the accepted prefix of the
	// group: false means the key was a duplicate — acknowledged, not
	// re-applied.
	applied bool
}

// heldBatch is a per-shard batch the core has filled but not yet sent.
type heldBatch struct {
	shard int
	ops   []Op
}

// pendingMark is a key to mark once its batch is journaled and sent.
type pendingMark struct {
	w   *sourceWindow
	seq uint64
}

// commit is the submit core's scratch, one per engine under its commit
// lock, so a steady-state submit allocates nothing.
type commit struct {
	parts   [][]Op      // per shard: the held batch still being filled
	held    []heldBatch // filled batches, in send order
	wires   [][]byte    // frames to journal, in group order
	encoded [][]byte    // the wires the core encoded itself (pooled)
	nOps    int         // ops behind wires/held
	marks   []pendingMark
	scratch []Op // decode buffer for wire-only batches
}

// reset drops every reference c holds to caller memory and hands the
// frames it encoded back to j. parts and held are already empty: the
// core releases them.
func (c *commit) reset(j *journal) {
	for _, wire := range c.encoded {
		j.release(wire)
	}
	clear(c.encoded)
	clear(c.wires)
	clear(c.marks)
	c.encoded, c.wires, c.marks = c.encoded[:0], c.wires[:0], c.marks[:0]
	c.nOps = 0
}

// seen reports whether seq was already applied in w, or is about to be
// by an earlier batch of this group.
func (c *commit) seen(w *sourceWindow, seq uint64) bool {
	if w.observed(seq) {
		return true
	}
	for _, m := range c.marks {
		if m.w == w && m.seq == seq {
			return true
		}
	}
	return false
}

// hold stages one batch for its shards without sending anything: a
// pool-owned batch travels whole, anything else is copied into the
// per-shard batches being filled, which are cut at BatchSize — so a
// group's ops merge into full batches and no pooled buffer outgrows
// BatchSize. hint sizes a buffer the pool could not supply.
func (c *commit) hold(e *Engine, b *batch, ops []Op, hint int) {
	if b.pooled {
		c.cut(b.shard) // what the shard was already owed goes first
		c.held = append(c.held, heldBatch{b.shard, ops})
		return
	}
	n := len(e.shards)
	for _, op := range ops {
		i := 0
		if n > 1 {
			i = shardIndex(op.SwarmID(), n)
		}
		if c.parts[i] == nil {
			c.parts[i] = e.pool.get(hint)
		}
		c.parts[i] = append(c.parts[i], op)
		if len(c.parts[i]) >= e.cfg.BatchSize {
			c.cut(i)
		}
	}
}

// cut moves shard i's partly filled batch to the send list.
func (c *commit) cut(i int) {
	if len(c.parts[i]) > 0 {
		c.held = append(c.held, heldBatch{i, c.parts[i]})
		c.parts[i] = nil
	}
}

// release empties the hold: into the shard queues, in the order held (so
// per-shard order is the group's order), when the group committed; back
// to the pool when it did not. A full queue stalls the caller
// (backpressure); nothing is ever dropped.
func (c *commit) release(e *Engine, committed bool) {
	for i := range c.parts {
		c.cut(i)
	}
	for _, h := range c.held {
		if committed {
			e.shards[h.shard].in <- shardMsg{ops: h.ops}
		} else {
			e.pool.put(h.ops)
		}
	}
	clear(c.held)
	c.held = c.held[:0]
}

// submit is the engine's one write path — the exactly-once sequence of
// DESIGN.md §11 lives here and nowhere else. It commits an ordered
// group of batches:
//
//	split each wire-only batch's key → commit lock → enter →
//	per batch: decode if wire-only, dedup check, hold for its shards →
//	one journal append of the group's frames (one write, one fsync) →
//	send the held batches in order → mark each key
//
// Submit, SubmitKeyed, SubmitFrame, Writer.flushShard and recovery
// replay are thin adapters passing a group of one; the stream server
// passes every complete DATA frame its read buffer holds, which is what
// amortises the fsync.
//
// Verdicts are per batch, effects are per prefix: accepted counts the
// leading batches that were acknowledged (applied or deduplicated). A
// wire-only batch that fails to decode ends the group — the batches
// before it are committed, it and everything after it touch neither
// journal nor state, and err is its decode error. A journal or encode
// failure commits nothing (accepted == 0). A key that appears twice in
// one group is applied once and acknowledged twice.
//
// With a journal attached every frame of the group is durable before
// any shard sees any of its batches, so a batch whose submit returned
// nil survives a crash. The commit lock is held from the dedup check
// through the sends and the marks, so across every writer the journal's
// order is the shards' order — recovery and a follower replaying the
// journal apply what the live shards applied, in the same order — and
// a retry of one key observes the first attempt's mark. Checkpoint takes
// the same lock for its capture, so a checkpoint never falls inside a
// group. The lock is taken before enter, so a submit waiting for it is
// not a queue user Close waits for.
func (e *Engine) submit(group []batch) (accepted int, err error) {
	all := group
	defer func() {
		for i := range all {
			if b := &all[i]; b.pooled && !b.applied {
				e.pool.put(b.ops)
			}
		}
	}()
	for i := range group {
		b := &group[i]
		if b.ops != nil {
			continue
		}
		if b.source, b.seq, b.body, err = splitFrame(b.wire); err != nil {
			group, err = group[:i], codecError{err}
			break
		}
	}

	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	if !e.enter() {
		return 0, ErrClosed
	}
	defer e.exit()
	c, j := &e.commit, e.journal
	defer c.reset(j)

	for i := range group {
		b := &group[i]
		ops := b.ops
		if ops == nil {
			var derr error
			if ops, derr = decodeOpsInto(c.scratch, b.body); derr != nil {
				group, err = group[:i], codecError{derr}
				break
			}
			c.scratch = ops[:0]
		}
		var w *sourceWindow
		dup := false
		if b.source != "" {
			w = e.dedup.window(b.source)
			dup = c.seen(w, b.seq)
		}
		switch {
		case len(ops) == 0:
			b.applied = true
		case dup:
			e.metrics.deduped.Add(uint64(len(ops)))
		default:
			if j != nil {
				wire := b.wire
				if wire == nil {
					// Encode before any send: the shard may recycle a
					// pool-owned batch the moment it is delivered.
					var eerr error
					if wire, eerr = j.encode(b.source, b.seq, ops); eerr != nil {
						c.release(e, false)
						return 0, eerr
					}
					c.encoded = append(c.encoded, wire)
				}
				c.wires = append(c.wires, wire)
			}
			if w != nil {
				c.marks = append(c.marks, pendingMark{w, b.seq})
			}
			c.nOps += len(ops)
			// A lone batch sizes a cold-start buffer for its per-shard
			// share (with slack for skew); a group fills whole batches.
			hint := e.cfg.BatchSize
			if len(group) == 1 {
				hint = min(hint, len(ops)/len(e.shards)+len(ops)/8+8)
			}
			c.hold(e, b, ops, hint)
			b.applied = true
		}
		if b.ops == nil {
			clear(ops) // the scratch must not pin registration payloads
		}
	}
	if len(c.wires) > 0 {
		if err := j.append(c.wires, c.nOps); err != nil {
			c.release(e, false)
			return 0, err
		}
	}
	e.metrics.records.Add(uint64(c.nOps))
	c.release(e, true)
	for _, m := range c.marks {
		m.w.mark(m.seq)
	}
	return len(group), err
}

// Submit applies ops. Safe for concurrent use; ops for the same swarm
// keep their relative order within a call (and across calls from the
// same goroutine). A full shard queue stalls the caller (backpressure).
// After Close, Submit returns ErrClosed. The caller keeps ownership of
// ops: its contents are copied into pool-recycled batch buffers. On a
// durable engine the call journals one frame.
func (e *Engine) Submit(ops []Op) error {
	_, err := e.SubmitKeyed("", 0, ops)
	return err
}

// SubmitKeyed applies ops exactly once per (source, seq) idempotency
// key: the first call delivers the batch, any retry of the same key is
// acknowledged without re-applying (applied=false, err=nil, and the
// duplicate is counted in ingest_deduped_total). An empty source is
// plain at-least-once Submit.
//
// On a durable engine the whole keyed batch is journaled as one frame —
// key and ops together — before any shard sees it, so a crash can never
// apply a batch while forgetting its key (or vice versa), and WAL
// shipping carries the window to followers: a batch retried across a
// failover is deduplicated by the promoted follower too.
func (e *Engine) SubmitKeyed(source string, seq uint64, ops []Op) (applied bool, err error) {
	if len(ops) == 0 {
		return true, nil
	}
	g := [1]batch{{source: source, seq: seq, ops: ops}}
	_, err = e.submit(g[:])
	return err == nil && g[0].applied, err
}

// SubmitFrame applies one already-encoded wire frame (the ops
// codec, plain or keyed — exactly the bytes a binary stream DATA frame carries). This
// is the streaming ingest hot path's whole point: the frame is decoded
// once, and on a durable engine the received bytes are appended to the
// journal verbatim — no intermediate structs, no re-encode — so the
// wire format, the WAL format and the recovery format are one format.
//
// Keyed frames ride the same exactly-once windows as SubmitKeyed.
// A frame that fails to decode is rejected before any state — journal
// or shards — is touched.
func (e *Engine) SubmitFrame(frame []byte) (applied bool, err error) {
	g := [1]batch{{wire: frame}}
	_, err = e.submit(g[:])
	return err == nil && g[0].applied, err
}

// Observe ingests a single monitor record (convenience; prefer a
// Writer on hot paths).
func (e *Engine) Observe(rec Record) error { return e.Submit([]Op{EventOp(rec)}) }

// Flush blocks until every op submitted before the call has been
// applied and published (a barrier through every shard queue; shards
// publish their read snapshot before acknowledging). After Close it
// waits for the drain to finish (the close applies everything).
func (e *Engine) Flush() { e.flush(e.shards...) }

// flush is Flush for the shards concerned.
func (e *Engine) flush(shards ...*shard) { e.onShards(shards, (*shard).publishDirty) }

// onShards runs fn once per shard with that shard's state to itself and
// returns when every call has: queued behind everything already in the
// shard's queue and run by the shard goroutine — or, once the engine has
// closed and drained, run in place, since the shard goroutines have
// exited and left the final, fully published state. It is the one way to
// read or capture what is not in the published view; calls for different
// shards run concurrently, so fn may share only what it indexes by shard.
func (e *Engine) onShards(shards []*shard, fn func(*shard)) {
	if !e.enter() {
		<-e.done
		for _, s := range shards {
			fn(s)
		}
		return
	}
	defer e.exit()
	var ran sync.WaitGroup
	ran.Add(len(shards))
	msg := shardMsg{do: func(s *shard) {
		fn(s)
		ran.Done()
	}}
	for _, s := range shards {
		s.in <- msg
	}
	ran.Wait()
}

// Close drains every shard queue, stops the shard goroutines, and
// returns once all submitted work is applied. It is idempotent, and
// safe to race with Submit/Flush/readers: late writes get ErrClosed,
// late reads serve the final state. A write that was acknowledged (its
// Submit or flush returned nil) before or during Close is always
// applied before Close returns.
func (e *Engine) Close() {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.stopped {
		return
	}
	e.closed.Store(true)
	// Wait the in-flight queue users out. New entrants bounce off the
	// closed flag; the ones already inside finish their sends against
	// still-open queues and live shard goroutines. Every decrement to
	// zero after the flag store sends a drained token, so this wait
	// sleeps instead of burning a core; the count is re-checked per
	// token because tokens can be stale.
	for e.inflight.Load() != 0 {
		<-e.drained
	}
	for _, s := range e.shards {
		close(s.in)
	}
	e.wg.Wait()
	if e.journal != nil {
		// Every accepted batch is both journaled and applied by now;
		// closing the log fsyncs its tail. Call Checkpoint *before*
		// Close to also fold that state into a checkpoint file.
		_ = e.journal.log.Close()
	}
	e.stopped = true
	close(e.done)
}

// Summary is the barrier read of the engine-wide aggregate: a flush,
// then a fresh merge of the published shard snapshots (the caller owns
// the result). It observes everything the caller submitted before the
// call; after Close the final publish is the complete state.
func (e *Engine) Summary() *Summary {
	e.Flush()
	sum := NewSummary()
	for _, s := range e.shards {
		sum.Merge(s.snap.Load().sum)
	}
	return sum
}

// Swarm returns one swarm's stats, computed on its home shard behind
// everything queued before the call: always read-your-writes, never a
// publish. ok is false for unknown swarms.
func (e *Engine) Swarm(id int) (st SwarmStats, ok bool) {
	ok = e.onSwarm(id, func(s *swarmState) { st = s.stats() })
	return st, ok
}

// Timeline returns one swarm's windowed history (per-bin observed and
// seeded time, busy-period starts, event counts), folded from its ring
// on its home shard like Swarm. ok is false for unknown swarms.
func (e *Engine) Timeline(id int) (w *WindowState, ok bool) {
	ok = e.onSwarm(id, func(s *swarmState) { w = s.timeline() })
	return w, ok
}

// onSwarm is the one per-swarm read: fn runs with swarm id's state on
// its home shard (onShards), if the shard knows the swarm. Nothing per
// swarm is published, so the answer is as fresh as the queue it waited
// in.
func (e *Engine) onSwarm(id int, fn func(*swarmState)) (ok bool) {
	e.onShards([]*shard{e.shardFor(id)}, func(s *shard) {
		if st := s.swarms[id]; st != nil {
			fn(st)
			ok = true
		}
	})
	return ok
}

// Writer is a per-producer batching front end: ops accumulate in
// per-shard buffers and flush to the shard queues when BatchSize is
// reached (or on Flush). One Writer must not be shared between
// goroutines; open one per producer — per-swarm ordering is preserved
// because a swarm's ops always travel through the same shard buffer in
// append order. Writes after Engine.Close return ErrClosed, and the
// buffered ops they drop are counted in ingest_writer_dropped_total.
//
// Buffers come from the engine's batch pool and are handed to the
// shard whole — the shard applies the batch and recycles the buffer —
// so a steady-state Put/flush cycle performs no allocation and no
// batch copy.
type Writer struct {
	e    *Engine
	bufs [][]Op
}

// NewWriter opens a batching writer.
func (e *Engine) NewWriter() *Writer {
	return &Writer{e: e, bufs: make([][]Op, len(e.shards))}
}

// Put appends one op, flushing the owning shard's buffer if full.
func (w *Writer) Put(op Op) error {
	i := shardIndex(op.SwarmID(), len(w.e.shards))
	buf := w.bufs[i]
	if buf == nil {
		buf = w.e.pool.get(w.e.cfg.BatchSize)
	}
	buf = append(buf, op)
	w.bufs[i] = buf
	if len(buf) >= w.e.cfg.BatchSize {
		return w.flushShard(i)
	}
	return nil
}

// Observe appends a monitor record.
func (w *Writer) Observe(rec Record) error { return w.Put(EventOp(rec)) }

// ObserveCensus appends a census observation.
func (w *Writer) ObserveCensus(snap trace.Snapshot) error {
	return w.Put(CensusOp(snap))
}

// flushShard hands shard i's buffer to its queue. If the engine closed
// underneath the writer the batch cannot be delivered: the loss is
// counted in ingest_writer_dropped_total, not discarded silently.
func (w *Writer) flushShard(i int) error {
	buf := w.bufs[i]
	if len(buf) == 0 {
		return nil
	}
	w.bufs[i] = nil
	n := len(buf) // submit takes ownership of buf
	g := [1]batch{{ops: buf, pooled: true, shard: i}}
	_, err := w.e.submit(g[:])
	if errors.Is(err, ErrClosed) {
		w.e.metrics.writerDropped.Add(uint64(n))
	}
	return err
}

// Flush pushes every buffered op to its shard and returns the first
// error. It does not wait for application; use Engine.Flush for a
// barrier.
func (w *Writer) Flush() error {
	var first error
	for i := range w.bufs {
		if err := w.flushShard(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}
