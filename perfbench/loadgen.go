package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// upload is one scheduled chunk upload. The generator fills in the
// schedule fields before any goroutine starts; the writer sets sent before
// the upload becomes visible to the reader, and the reader that pops the
// upload sets done, acked and err.
type upload struct {
	stream  uint32
	seq     int // the store sequence the origin must ack
	content int
	due     time.Time

	sent  time.Time
	done  time.Time
	acked bool
	err   error

	pushes atomic.Int32 // subscriber deliveries received (live)
}

// fetch is one viewer request through the edge.
type fetch struct {
	stream  uint32
	seq     int
	content int
	due     time.Time
	win     *window // vod: the window it belongs to

	sent time.Time
	done time.Time
	ok   bool
	err  error
}

// window is one vod viewer request: a run of consecutive chunks of a
// title, sent back to back on one connection at one due time, as a player
// filling its buffer would. It completes with its last chunk.
type window struct {
	due  time.Time
	warm bool         // issued during warm-up: checked, not timed
	left atomic.Int32 // chunks without a reply
	done time.Time    // set by the reader that settles the last chunk
}

// gen is the state one measured run shares across its connections.
type gen struct {
	c       *content
	subs    int // subscriptions per stream (live)
	uploads map[uint32][]*upload

	outstanding atomic.Int64 // issued uploads and fetches without a reply
	pushes      atomic.Int64
	onAck       func(*upload)

	violMu     sync.Mutex
	violations []string // guarded by violMu

	samplesMu sync.Mutex
	g2g       []time.Duration // guarded by samplesMu
}

// violate records a correctness violation; any violation fails the run.
func (g *gen) violate(format string, args ...any) {
	g.violMu.Lock()
	if len(g.violations) < 20 {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	} else if len(g.violations) == 20 {
		g.violations = append(g.violations, "...")
	}
	g.violMu.Unlock()
}

// checkDelivery compares a delivered container with the reference.
func (g *gen) checkDelivery(what string, stream uint32, seq, content int, cd wire.ChunkData) bool {
	if int(cd.Seq) != seq {
		g.violate("%s stream %d chunk %d: delivered chunk %d", what, stream, seq, cd.Seq)
		return false
	}
	if cd.Degraded || !bytes.Equal(cd.Data, g.c.ref[content]) {
		g.violate("%s stream %d chunk %d: container differs from the serial eager reference (degraded=%v)", what, stream, seq, cd.Degraded)
		return false
	}
	return true
}

// ingestConn is one generator connection to the origin's ingest port.
// Streams are multiplexed on it; the origin answers in arrival order, so
// replies match sent uploads first in, first out.
type ingestConn struct {
	conn   net.Conn
	budget time.Duration

	mu   sync.Mutex
	fifo []*upload // sent, awaiting their reply; guarded by mu

	// Written only by the writer goroutine; read after it exits.
	lags, blocks []time.Duration
}

// writeLoop sends ups (sorted by due time) open-loop: each upload goes out
// at its due time however the previous ones fared.
func (c *ingestConn) writeLoop(g *gen, ups []*upload) {
	pace := newPacer()
	defer pace.close()
	for _, u := range ups {
		pace.until(u.due)
		u.sent = time.Now()
		c.lags = append(c.lags, u.sent.Sub(u.due))
		c.mu.Lock()
		c.fifo = append(c.fifo, u)
		c.mu.Unlock()
		g.outstanding.Add(1)
		err := wire.Write(c.conn, wire.Message{
			Type: wire.TypeChunk, StreamID: u.stream, Seq: uint32(u.seq + 1),
			Payload: g.c.payloads[u.content], Budget: c.budget,
		})
		c.blocks = append(c.blocks, time.Since(u.sent))
		if err != nil {
			// The reader fails every queued upload once the conn is closed.
			c.conn.Close()
			return
		}
	}
}

// readLoop matches replies to uploads until the connection closes.
func (c *ingestConn) readLoop(g *gen) {
	for {
		msg, err := wire.Read(c.conn, wire.DefaultMaxPayload)
		now := time.Now()
		if err != nil {
			c.mu.Lock()
			rest := c.fifo
			c.fifo = nil
			c.mu.Unlock()
			for _, u := range rest {
				u.err = fmt.Errorf("no ack: %v", err)
				g.outstanding.Add(-1)
			}
			return
		}
		c.mu.Lock()
		var u *upload
		if len(c.fifo) > 0 {
			u = c.fifo[0]
			c.fifo = c.fifo[1:]
		}
		c.mu.Unlock()
		if u == nil {
			g.violate("unsolicited ingest reply %v seq %d", msg.Type, msg.Seq)
			continue
		}
		u.done = now
		switch {
		case msg.Type == wire.TypeAck && int(msg.Seq) == u.seq:
			u.acked = true
		case msg.Type == wire.TypeAck:
			g.violate("stream %d chunk %d acked as chunk %d", u.stream, u.seq, msg.Seq)
		default:
			u.err = fmt.Errorf("%v: %s", msg.Type, msg.Payload)
		}
		if u.acked && g.onAck != nil {
			g.onAck(u)
		}
		g.outstanding.Add(-1)
	}
}

// viewerConn is one generator connection to the edge. Pullers and
// subscribers are multiplexed on it: replies echo the request Seq,
// subscriber pushes arrive with Seq 0.
type viewerConn struct {
	conn   net.Conn
	budget time.Duration
	reqs   chan *fetch
	seqs   wire.SeqSource

	mu      sync.Mutex
	pending map[uint32]*fetch // guarded by mu

	lags, blocks []time.Duration // writer-owned, read after it exits
}

// subscribe registers a subscription synchronously; it must run before the
// reader starts.
func (c *viewerConn) subscribe(stream uint32) error {
	seq := c.seqs.Next()
	if err := wire.Write(c.conn, wire.Message{Type: wire.TypeSubscribe, StreamID: stream, Seq: seq,
		Payload: wire.EncodeSubscribe(wire.Subscribe{})}); err != nil {
		return err
	}
	reply, err := wire.Read(c.conn, wire.DefaultMaxPayload)
	if err != nil {
		return err
	}
	if reply.Type != wire.TypeSubscribe || reply.Seq != seq {
		return fmt.Errorf("subscribe stream %d: reply %v: %s", stream, reply.Type, reply.Payload)
	}
	return nil
}

// writeLoop sends queued fetches, each at its due time.
func (c *viewerConn) writeLoop(g *gen) {
	pace := newPacer()
	defer pace.close()
	for f := range c.reqs {
		pace.until(f.due)
		seq := c.seqs.Next()
		f.sent = time.Now()
		c.lags = append(c.lags, f.sent.Sub(f.due))
		c.mu.Lock()
		c.pending[seq] = f
		c.mu.Unlock()
		err := wire.Write(c.conn, wire.Message{
			Type: wire.TypeFetchChunk, StreamID: f.stream, Seq: seq, Budget: c.budget,
			Payload: wire.EncodeFetchChunk(wire.FetchChunk{Seq: uint32(f.seq)}),
		})
		c.blocks = append(c.blocks, time.Since(f.sent))
		if err != nil {
			c.conn.Close()
			for range c.reqs {
				// Drain so the producer never blocks; the unsent fetches
				// stay without a reply and count as failed.
			}
			return
		}
	}
}

// readLoop completes fetches and receives pushes until the conn closes.
func (c *viewerConn) readLoop(g *gen) {
	for {
		msg, err := wire.Read(c.conn, wire.DefaultMaxPayload)
		now := time.Now()
		if err != nil {
			c.mu.Lock()
			rest := c.pending
			c.pending = make(map[uint32]*fetch)
			c.mu.Unlock()
			for _, f := range rest {
				f.err = fmt.Errorf("no reply: %v", err)
				g.outstanding.Add(-1)
			}
			return
		}
		if msg.Seq == 0 {
			g.push(msg, now)
			continue
		}
		c.mu.Lock()
		f := c.pending[msg.Seq]
		delete(c.pending, msg.Seq)
		c.mu.Unlock()
		if f == nil {
			g.violate("unsolicited edge reply %v seq %d", msg.Type, msg.Seq)
			continue
		}
		f.done = now
		if msg.Type != wire.TypeChunkData {
			f.err = fmt.Errorf("%v: %s", msg.Type, msg.Payload)
		} else if cd, err := wire.DecodeChunkDataAlias(msg.Payload); err != nil {
			g.violate("fetch stream %d chunk %d: %v", f.stream, f.seq, err)
		} else {
			f.ok = g.checkDelivery("fetch", f.stream, f.seq, f.content, cd)
		}
		if f.win != nil && f.win.left.Add(-1) == 0 {
			f.win.done = now
		}
		g.outstanding.Add(-1)
	}
}

// push handles one subscriber delivery.
func (g *gen) push(msg wire.Message, at time.Time) {
	if msg.Type != wire.TypeChunkData {
		g.violate("unexpected push %v on stream %d", msg.Type, msg.StreamID)
		return
	}
	cd, err := wire.DecodeChunkDataAlias(msg.Payload)
	if err != nil {
		g.violate("push stream %d: %v", msg.StreamID, err)
		return
	}
	ups := g.uploads[msg.StreamID]
	if int(cd.Seq) >= len(ups) {
		g.violate("push of unknown stream %d chunk %d", msg.StreamID, cd.Seq)
		return
	}
	u := ups[cd.Seq]
	if !g.checkDelivery("push", u.stream, u.seq, u.content, cd) {
		return
	}
	if n := u.pushes.Add(1); int(n) > g.subs {
		g.violate("stream %d chunk %d pushed %d times to %d subscriptions", u.stream, u.seq, n, g.subs)
		return
	}
	g.pushes.Add(1)
	g.samplesMu.Lock()
	g.g2g = append(g.g2g, at.Sub(u.due))
	g.samplesMu.Unlock()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
