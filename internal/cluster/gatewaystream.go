package cluster

import (
	"fmt"
	"net"
	"time"

	"swarmavail/internal/ingest"
)

// ServeStream serves the binary streaming ingest protocol cluster-wide:
// it accepts monitor stream connections on ln and forwards each DATA
// frame's ops to the owning slots over upstream stream connections
// (every node's BinAddr), acknowledging a frame downstream only after
// every upstream share is acknowledged.
//
// A keyed frame whose ops all land on one slot is forwarded byte for
// byte — the node journals exactly the bytes the monitor signed with
// its CRC. Frames that straddle slots are split along the ring and
// re-encoded per slot under the same (source, seq) key, so a retry
// after a lost downstream ack still deduplicates at every node (each
// node sees at most one share per key, exactly as the HTTP fan-out).
// Unkeyed frames get gateway-originated per-slot keys, making the
// upstream resend after a broken node connection exactly-once even
// though the monitor asked only for at-least-once.
//
// ServeStream returns nil when ln closes or the gateway does, once every
// stream connection has ended. Gateway.Close cuts the connections at a
// frame boundary, as a node's StreamServer.Close does: frames already
// acknowledged downstream stand, the monitor resends the rest under its
// keys to whichever gateway it reconnects to.
func (g *Gateway) ServeStream(ln net.Listener) error {
	for i, n := range g.nodes {
		if n.route.Load().binAddr == "" {
			return fmt.Errorf("cluster: node %d (%s) has no BinAddr for stream forwarding", i, n.cfg.name())
		}
	}
	return g.streams.Serve(ln)
}

// slotTarget is one slot's cumulative-sent watermark at the time a
// downstream frame finished fanning out.
type slotTarget struct {
	slot int
	sent uint64
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
	clients []*ingest.StreamClient // lazy, per slot

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
	go f.relay()
	err := f.serve()
	// The relay settles and acknowledges everything fanned out before the
	// stream ended, so a verdict's ERR follows the ACK of its prefix —
	// the order a node answers in.
	close(f.acks)
	<-f.done
	for _, c := range f.clients {
		if c != nil {
			c.Close()
		}
	}
	if f.relayErr != nil {
		// The relay closed the connection under the serve loop; its
		// error is the cause, the loop's read error the symptom.
		return f.relayErr
	}
	return f.sess.End(err)
}

// client returns slot's upstream stream client, dialing lazily. The
// dial func re-reads the slot's current binary address, so a reconnect
// after a failover lands on the promoted follower.
func (f *streamForwarder) client(slot int) *ingest.StreamClient {
	if f.clients[slot] == nil {
		n := f.g.nodes[slot]
		f.clients[slot] = ingest.NewStreamClient(ingest.StreamClientConfig{
			Dial: func() (net.Conn, error) {
				return net.DialTimeout("tcp", n.route.Load().binAddr, 10*time.Second)
			},
			Source: n.source,
			Logf:   f.g.cfg.Logf,
		})
	}
	return f.clients[slot]
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

// forward routes one DATA frame's ops to their slots and queues the ack
// watermarks. A refusal comes back as the ERR verdict the monitor is
// owed: codec for a frame that does not decode (or re-encode), state for
// an upstream that will not take its share.
func (f *streamForwarder) forward(frame []byte) error {
	source, seq, ops, err := ingest.DecodeFrame(frame)
	if err != nil {
		return &ingest.StreamError{Code: ingest.StreamErrCodec, Msg: err.Error()}
	}
	shares, whole := route(f.g, source, seq, ops, ingest.Op.SwarmID)
	job := streamAckJob{count: f.accepted + 1}
	for _, sh := range shares {
		// A keyed frame owned by one slot travels as the bytes received.
		enc := frame
		if !whole {
			if enc, err = ingest.EncodeFrame(nil, sh.source, sh.seq, sh.items); err != nil {
				return &ingest.StreamError{Code: ingest.StreamErrCodec, Msg: fmt.Sprintf("re-encode for slot %d: %v", sh.slot, err)}
			}
		}
		c := f.client(sh.slot)
		if err := c.PushFrame(enc); err != nil {
			return &ingest.StreamError{Code: ingest.StreamErrState, Msg: fmt.Sprintf("slot %d: %v", sh.slot, err)}
		}
		job.targets = append(job.targets, slotTarget{slot: sh.slot, sent: c.Sent()})
	}
	f.g.streamFrames.Inc()
	f.accepted++
	f.acks <- job
	return nil
}

// relay settles ack jobs in order: wait until every slot watermark in
// the job is acknowledged upstream, then acknowledge downstream — once
// per backlog, not per job: a job with others queued behind it is
// covered by the last one's cumulative ack. On an upstream failure it
// reports once, closes the downstream connection, and keeps draining so
// the serve loop never blocks on the queue.
func (f *streamForwarder) relay() {
	defer close(f.done)
	for job := range f.acks {
		if f.relayErr != nil {
			continue
		}
		if f.relayErr = f.settle(job); f.relayErr != nil {
			f.sess.Err(ingest.StreamErrState, f.relayErr.Error())
			f.conn.Close()
		} else if len(f.acks) == 0 {
			_ = f.sess.Ack(job.count) // a dead downstream shows up in serve's read
		}
	}
}

func (f *streamForwarder) settle(job streamAckJob) error {
	for _, t := range job.targets {
		if err := f.clients[t.slot].WaitAcked(t.sent); err != nil {
			return fmt.Errorf("slot %d: %w", t.slot, err)
		}
	}
	return nil
}
