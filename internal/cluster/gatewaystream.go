package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/wal"
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
// ServeStream returns nil when ln closes. Close the listener before
// Gateway.Close on shutdown.
func (g *Gateway) ServeStream(ln net.Listener) error {
	for i, n := range g.nodes {
		if addr, _ := n.binAddr.Load().(string); addr == "" {
			return fmt.Errorf("cluster: node %d (%s) has no BinAddr for stream forwarding", i, n.cfg.name())
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			if err := g.serveStreamConn(conn); err != nil {
				g.logf("gateway stream %s: %v", conn.RemoteAddr(), err)
			}
		}(conn)
	}
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

// streamForwarder is one downstream connection's forwarding state.
type streamForwarder struct {
	g       *Gateway
	conn    net.Conn
	clients []*ingest.StreamClient // lazy, per slot

	wmu  sync.Mutex // downstream writes: ack relay vs. ERR frames
	wbuf []byte

	// accepted counts downstream DATA frames fanned out on this
	// connection; only the serve loop touches it.
	accepted uint64

	acks chan streamAckJob
	done chan struct{} // ack relay exited
	ferr chan error    // first relay failure (buffered 1)
}

func (g *Gateway) serveStreamConn(conn net.Conn) error {
	g.streamConns.Inc()
	f := &streamForwarder{
		g:       g,
		conn:    conn,
		clients: make([]*ingest.StreamClient, len(g.nodes)),
		acks:    make(chan streamAckJob, 128),
		done:    make(chan struct{}),
		ferr:    make(chan error, 1),
	}
	go f.relay()
	err := f.serve()
	close(f.acks)
	<-f.done
	for _, c := range f.clients {
		if c != nil {
			c.Close()
		}
	}
	if err == nil {
		select {
		case rerr := <-f.ferr:
			err = rerr
		default:
		}
	}
	return err
}

// client returns slot's upstream stream client, dialing lazily. The
// dial func re-reads the slot's current binary address, so a reconnect
// after a failover lands on the promoted follower.
func (f *streamForwarder) client(slot int) *ingest.StreamClient {
	if f.clients[slot] == nil {
		n := f.g.nodes[slot]
		f.clients[slot] = ingest.NewStreamClient(ingest.StreamClientConfig{
			Dial: func() (net.Conn, error) {
				addr, _ := n.binAddr.Load().(string)
				return net.DialTimeout("tcp", addr, 10*time.Second)
			},
			Source: f.g.cfg.SourceID + "#" + strconv.Itoa(slot),
			Logf:   f.g.cfg.Logf,
		})
	}
	return f.clients[slot]
}

// serve is the downstream read loop: one iteration per frame, exactly
// the availd stream server's protocol surface.
func (f *streamForwarder) serve() error {
	fr := wal.NewFrameReader(f.conn)
	for {
		payload, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if errors.Is(err, wal.ErrCorrupt) {
				f.sendErr(ingest.StreamErrProto, "corrupt frame: "+err.Error())
				return fmt.Errorf("corrupt frame: %w", err)
			}
			return err
		}
		if len(payload) > ingest.MaxStreamFrame {
			f.sendErr(ingest.StreamErrProto, "frame exceeds stream bound")
			return fmt.Errorf("oversized stream frame (%d bytes)", len(payload))
		}
		switch payload[0] {
		case ingest.StreamFrameData:
			if err := f.forward(payload[1:]); err != nil {
				return err
			}
		case ingest.StreamFrameClose:
			// Queue a final targetless ack job: the relay settles every
			// queued watermark in order, so when it reaches this job the
			// whole stream is settled and the ack it writes is the final
			// cumulative one the client is waiting for.
			f.acks <- streamAckJob{count: f.accepted}
			return nil
		default:
			f.sendErr(ingest.StreamErrProto, fmt.Sprintf("unknown frame type 0x%02x", payload[0]))
			return fmt.Errorf("unknown stream frame type 0x%02x", payload[0])
		}
	}
}

// forward fans one DATA frame's ops out to their slots and queues the
// ack watermarks.
func (f *streamForwarder) forward(frame []byte) error {
	source, seq, ops, err := ingest.DecodeFrame(frame)
	if err != nil {
		f.sendErr(ingest.StreamErrCodec, err.Error())
		return fmt.Errorf("data frame rejected: %w", err)
	}
	g := f.g
	var touched []int
	if len(ops) > 0 {
		slots := make([][]ingest.Op, len(g.nodes))
		single := g.ring.Node(ops[0].SwarmID())
		for _, op := range ops {
			slot := g.ring.Node(op.SwarmID())
			if slot != single {
				single = -1
			}
			slots[slot] = append(slots[slot], op)
		}
		if single >= 0 && source != "" {
			// Whole frame owned by one slot under the monitor's own key:
			// forward the received bytes verbatim.
			if err := f.push(single, func(c *ingest.StreamClient) error {
				return c.PushFrame(frame)
			}); err != nil {
				return err
			}
			touched = append(touched, single)
		} else {
			for slot, share := range slots {
				if len(share) == 0 {
					continue
				}
				src, sq := source, seq
				if src == "" {
					src = g.cfg.SourceID + "#" + strconv.Itoa(slot)
					sq = g.nodes[slot].seq.Add(1)
				}
				enc, err := ingest.EncodeFrame(nil, src, sq, share)
				if err != nil {
					f.sendErr(ingest.StreamErrCodec, err.Error())
					return fmt.Errorf("re-encode for slot %d: %w", slot, err)
				}
				if err := f.push(slot, func(c *ingest.StreamClient) error {
					return c.PushFrame(enc)
				}); err != nil {
					return err
				}
				touched = append(touched, slot)
			}
		}
	}
	g.streamFrames.Inc()
	f.accepted++
	job := streamAckJob{count: f.accepted}
	for _, slot := range touched {
		job.targets = append(job.targets, slotTarget{slot: slot, sent: f.clients[slot].Sent()})
	}
	f.acks <- job
	return nil
}

// push runs one upstream send, converting a fatal upstream verdict into
// a downstream ERR.
func (f *streamForwarder) push(slot int, send func(*ingest.StreamClient) error) error {
	if err := send(f.client(slot)); err != nil {
		f.sendErr(ingest.StreamErrState, fmt.Sprintf("slot %d: %v", slot, err))
		return fmt.Errorf("forward to slot %d: %w", slot, err)
	}
	return nil
}

// relay settles ack jobs in order: wait until every slot watermark in
// the job is acknowledged upstream, then acknowledge downstream.
// Consecutive settled jobs coalesce into one downstream ack. On an
// upstream failure it reports once, closes the downstream connection,
// and keeps draining so the serve loop never blocks on the queue.
func (f *streamForwarder) relay() {
	defer close(f.done)
	failed := false
	for job := range f.acks {
		if failed {
			continue
		}
		if err := f.settle(job); err != nil {
			failed = true
			f.ferr <- err
			f.sendErr(ingest.StreamErrState, err.Error())
			f.conn.Close()
			continue
		}
		// Coalesce: settle everything already queued before acking.
		count := job.count
	drain:
		for {
			select {
			case next, ok := <-f.acks:
				if !ok {
					f.writeAck(count)
					return
				}
				if err := f.settle(next); err != nil {
					failed = true
					f.ferr <- err
					f.sendErr(ingest.StreamErrState, err.Error())
					f.conn.Close()
					break drain
				}
				count = next.count
			default:
				break drain
			}
		}
		if !failed {
			f.writeAck(count)
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

func (f *streamForwarder) writeAck(count uint64) {
	var p [9]byte
	p[0] = ingest.StreamFrameAck
	binary.LittleEndian.PutUint64(p[1:], count)
	f.wmu.Lock()
	f.wbuf = wal.AppendFrame(f.wbuf[:0], p[:])
	_, _ = f.conn.Write(f.wbuf)
	f.wmu.Unlock()
}

func (f *streamForwarder) sendErr(code byte, msg string) {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	p := make([]byte, 0, 2+len(msg))
	p = append(p, ingest.StreamFrameErr, code)
	p = append(p, msg...)
	f.wmu.Lock()
	env := wal.AppendFrame(nil, p)
	_, _ = f.conn.Write(env)
	f.wmu.Unlock()
}
