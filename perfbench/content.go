package main

import (
	"fmt"
	"net"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/synth"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// Ingest geometry shared by every workload: 96×64 ingest upscaled ×3, in
// 12-frame GOP-aligned chunks.
const (
	lrW     = 96
	lrH     = 64
	scaleX  = 3
	gopLen  = 12
	profile = "lol"
)

// content is a workload's pre-encoded material: a few distinct chunks that
// every stream cycles through, the high-resolution frames the oracle model
// blends toward, and the serial eager reference container of each chunk.
// A chunk's container depends only on its packets (chunks are GOP-aligned,
// so decoding never looks across a chunk boundary) and on the oracle frames
// its display indices select, so one reference per distinct chunk checks
// every delivery of it on any stream.
type content struct {
	hello      wire.Hello
	payloads   [][]byte // wire.EncodeChunk payload per distinct chunk
	hr         []*frame.Frame
	ref        [][]byte // reference container per distinct chunk
	refAnchors []int    // anchors the reference ships per distinct chunk
	// display holds each packet's display index per distinct chunk. Packets
	// are in decode order, and an invisible altref shares the display
	// index of the frame it precedes.
	display [][]int
}

// newContent synthesises n distinct chunks from seed, encodes them as a
// broadcaster would, and builds their reference containers on a serial
// eager origin with an in-process enhancer and no modelled device.
func newContent(seed int64, n int, fraction float64) (*content, error) {
	p, err := synth.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	hello := wire.Hello{
		Config: vcodec.Config{Width: lrW, Height: lrH, FPS: 30, BitrateKbps: 700, GOP: gopLen, Mode: vcodec.ModeConstrainedVBR},
		Scale:  scaleX,
		Model:  sr.HighQuality(),
		// The content name travels in the hello for viewers; the model
		// provider ignores it.
		Content: profile,
	}
	enc, err := vcodec.NewEncoder(hello.Config)
	if err != nil {
		return nil, err
	}
	hello.Config = enc.Config()
	c := &content{hello: hello}
	for i := 0; i < n; i++ {
		// Each distinct chunk is its own seeded scene, so a run's cost
		// averages over several scenes instead of hanging on one.
		g, err := synth.NewGenerator(p, lrW*scaleX, lrH*scaleX, seed*1_000_003+int64(i))
		if err != nil {
			return nil, err
		}
		c.hr = append(c.hr, g.GenerateChunk(gopLen)...)
		lr := make([]*frame.Frame, gopLen)
		for j := range lr {
			if lr[j], err = frame.Downscale(c.hr[i*gopLen+j], scaleX); err != nil {
				return nil, err
			}
		}
		pkts, err := enc.EncodeChunk(lr)
		if err != nil {
			return nil, fmt.Errorf("encode chunk %d: %w", i, err)
		}
		raw := make([][]byte, len(pkts))
		idx := make([]int, len(pkts))
		for j, pk := range pkts {
			raw[j], idx[j] = pk.Data, pk.Info.DisplayIndex
		}
		c.payloads = append(c.payloads, wire.EncodeChunk(raw))
		c.display = append(c.display, idx)
	}
	if err := c.buildReference(fraction); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return c, nil
}

// provider resolves every stream to the oracle over the shared frames.
func (c *content) provider(streamID uint32, h wire.Hello) (sr.Model, error) {
	return sr.NewOracleModel(h.Model, c.hr)
}

// buildReference uploads each distinct chunk once to a serial eager origin
// (one anchor in flight, no stage overlap, no batching) and keeps the
// containers it stores.
func (c *content) buildReference(fraction float64) error {
	local, err := media.NewLocalEnhancer(c.provider)
	if err != nil {
		return err
	}
	srv, err := media.NewServer("127.0.0.1:0", local, media.ServerConfig{
		AnchorFraction:     fraction,
		MaxInFlightAnchors: -1,
		MaxAnchorBatch:     -1,
		PipelineDepth:      -1,
		Logf:               discard,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(time.Minute))
	const stream = 1
	if err := handshake(conn, stream, c.hello); err != nil {
		return err
	}
	for i, p := range c.payloads {
		if err := wire.Write(conn, wire.Message{Type: wire.TypeChunk, StreamID: stream, Seq: uint32(i + 1), Payload: p}); err != nil {
			return err
		}
		reply, err := wire.Read(conn, wire.DefaultMaxPayload)
		if err != nil {
			return err
		}
		if reply.Type != wire.TypeAck || int(reply.Seq) != i {
			return fmt.Errorf("chunk %d: reply %v seq %d: %s", i, reply.Type, reply.Seq, reply.Payload)
		}
		data, degraded, pending, err := srv.Store().ChunkState(stream, i)
		if err != nil {
			return err
		}
		if degraded || pending {
			return fmt.Errorf("chunk %d: reference is degraded or unbuilt", i)
		}
		n, err := countAnchors(data)
		if err != nil {
			return err
		}
		c.ref = append(c.ref, data)
		c.refAnchors = append(c.refAnchors, n)
	}
	return nil
}

// handshake announces one stream on an ingest connection and waits for
// its ack.
func handshake(conn net.Conn, stream uint32, h wire.Hello) error {
	payload, err := wire.EncodeHello(h)
	if err != nil {
		return err
	}
	if err := wire.Write(conn, wire.Message{Type: wire.TypeHello, StreamID: stream, Payload: payload}); err != nil {
		return err
	}
	reply, err := wire.Read(conn, wire.DefaultMaxPayload)
	if err != nil {
		return err
	}
	if reply.Type != wire.TypeAck {
		return fmt.Errorf("hello for stream %d rejected: %s", stream, reply.Payload)
	}
	return nil
}

// countAnchors parses a marshalled container and counts its anchors.
func countAnchors(data []byte) (int, error) {
	var c hybrid.Container
	if err := c.UnmarshalBinary(data); err != nil {
		return 0, err
	}
	n := 0
	for _, f := range c.Frames {
		if f.Anchor != nil {
			n++
		}
	}
	return n, nil
}

func discard(string, ...any) {}
