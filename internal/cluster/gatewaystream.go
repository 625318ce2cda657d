package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"swarmavail/internal/ingest"
)

// ServeStream serves the binary streaming ingest protocol cluster-wide:
// it accepts monitor stream connections on ln and forwards each DATA
// frame through the gateway's one write fan-out (push), over upstream
// clients of the connection's own, acknowledging a frame downstream only
// once every share is acknowledged upstream. A keyed frame one slot owns
// travels byte for byte — the node journals the bytes the monitor signed
// with its CRC — and an unkeyed one gets the slots' gateway-originated
// keys, so the upstream resend after a broken node connection is
// exactly-once though the monitor asked only for at-least-once.
//
// Each upstream client redials for its slot's push budget, so a
// failover under a stream costs the monitor a delay, not an ERR; the
// session's keepalive repeats the last ACK to the monitor meanwhile, so
// its StreamClient sees a gateway that waits, not one that stopped.
//
// ServeStream returns nil when ln closes or the gateway does, once every
// stream connection has ended. Gateway.Close cuts the connections at a
// frame boundary, as a node's StreamServer.Close does: frames already
// acknowledged downstream stand, the monitor resends the rest under its
// keys to whichever gateway it reconnects to.
func (g *Gateway) ServeStream(ln net.Listener) error { return g.streams.Serve(ln) }

// epochConn is an upstream stream connection and the slot epoch it was
// dialed under, the exchange's stamp: max(route epoch, 1). An ACK read
// once the slot has moved past that epoch comes from a leader retired
// while the frame was in flight — the frame may exist only there — so
// the read fails instead: the client drops the connection, redials the
// slot's current node and resends its unacknowledged frames under their
// keys, which that node applies or deduplicates.
type epochConn struct {
	net.Conn
	n     *gwNode
	epoch uint64
}

func (c *epochConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	if c.n.behind(c.epoch) {
		c.Conn.Close()
		return 0, fmt.Errorf("cluster: %s stream dialed at epoch %d, slot now at %d", c.n.cfg.name(), c.epoch, c.n.route.Load().epoch)
	}
	return k, err
}

// streamAckJob asks the ack relay to acknowledge the first count
// downstream DATA frames once every slot watermark is settled.
type streamAckJob struct {
	count   uint64
	targets []slotTarget
}

// streamForwarder is one downstream connection's forwarding state: the
// node's own stream session (ingest.StreamSession — so the gateway's
// frame bound and its ERR verdicts are the node's) facing the monitor,
// and one upstream stream client per slot.
type streamForwarder struct {
	g       *Gateway
	conn    net.Conn
	sess    *ingest.StreamSession
	clients []*ingest.StreamClient

	// accepted counts downstream DATA frames fanned out on this
	// connection; only the serve loop touches it.
	accepted uint64

	// acks queues one job per fanned-out frame for the relay. 128 is well
	// past an upstream client's window (32 frames), so the serve loop
	// blocks on a slow slot's window, not on the relay.
	acks     chan streamAckJob
	done     chan struct{} // ack relay exited
	relayErr error         // the relay's upstream failure; read after done
}

func (g *Gateway) serveStreamConn(conn net.Conn) error {
	g.streamConns.Inc()
	f := &streamForwarder{
		g:       g,
		conn:    conn,
		sess:    ingest.NewStreamSession(conn),
		clients: make([]*ingest.StreamClient, len(g.nodes)),
		acks:    make(chan streamAckJob, 128),
		done:    make(chan struct{}),
	}
	for slot, n := range g.nodes {
		f.clients[slot] = g.upstream(n)
	}
	// Cut short whatever an upstream client is waiting on when the stream
	// front closes, serve loop included.
	defer context.AfterFunc(g.streamsCtx, f.abandon)()
	go f.relay()
	err := f.serve()
	if err != nil && !errors.Is(err, io.EOF) && !errors.As(err, new(*ingest.StreamError)) {
		// The downstream is gone, not merely done sending: there is no one
		// left to acknowledge, so the frames still unsettled upstream are
		// the monitor's to resend under its keys, wherever it reconnects.
		f.abandon()
	}
	// The relay settles and acknowledges everything fanned out before the
	// stream ended, so a verdict's ERR follows the ACK of its prefix —
	// the order a node answers in.
	close(f.acks)
	<-f.done
	f.abandon()
	if f.relayErr != nil && !errors.Is(f.relayErr, ingest.ErrClosed) {
		// The relay closed the connection under the serve loop; its
		// error is the cause, the loop's read error the symptom.
		return f.relayErr
	}
	return f.sess.End(err)
}

// abandon drops every upstream client without settling it.
func (f *streamForwarder) abandon() {
	for _, c := range f.clients {
		c.Abandon()
	}
}

// serve is the downstream read loop: one iteration per frame, over the
// session a node serves the same protocol on. It returns what ended the
// stream, for the session's End to answer.
func (f *streamForwarder) serve() error {
	for {
		typ, frame, err := f.sess.Next(true)
		switch {
		case err != nil:
			return err
		case typ == ingest.StreamFrameData:
			if err := f.forward(frame); err != nil {
				return err
			}
		default: // CLOSE
			// Queue a final targetless ack job: the relay settles every
			// queued watermark in order, so when it reaches this job the
			// whole stream is settled and the ack it writes is the final
			// cumulative one the client is waiting for.
			f.acks <- streamAckJob{count: f.accepted}
			return nil
		}
	}
}

// forward pushes one DATA frame's ops to their slots and queues the ack
// watermarks. A refusal comes back as the ERR verdict the monitor is
// owed: codec for a frame that does not decode, state for an upstream
// that will not take its share.
func (f *streamForwarder) forward(frame []byte) error {
	source, seq, ops, err := ingest.DecodeFrame(frame)
	if err != nil {
		return &ingest.StreamError{Code: ingest.StreamErrCodec, Msg: err.Error()}
	}
	targets, err := f.g.push(func(slot int) *ingest.StreamClient { return f.clients[slot] }, source, seq, ops, frame)
	if err != nil {
		return &ingest.StreamError{Code: ingest.StreamErrState, Msg: err.Error()}
	}
	f.g.streamFrames.Inc()
	f.accepted++
	f.acks <- streamAckJob{count: f.accepted, targets: targets}
	return nil
}

// relay settles ack jobs in order: wait until every slot watermark in
// the job is acknowledged upstream, then acknowledge downstream — once
// per backlog, not per job: a job with others queued behind it is
// covered by the last one's cumulative ack. On an upstream failure it
// reports once, closes the downstream connection, abandons the other
// upstreams (nothing more will be acknowledged on this stream) and
// keeps draining so the serve loop never blocks on the queue.
func (f *streamForwarder) relay() {
	defer close(f.done)
	for job := range f.acks {
		if f.relayErr != nil {
			continue
		}
		if f.relayErr = f.g.settle(job.targets); f.relayErr != nil {
			f.sess.Err(ingest.StreamErrState, f.relayErr.Error())
			f.conn.Close()
			f.abandon()
		} else if len(f.acks) == 0 {
			_ = f.sess.Ack(job.count) // a dead downstream shows up in serve's read
		}
	}
}
