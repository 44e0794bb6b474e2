package media

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/anchor"
	"github.com/neuroscaler/neuroscaler/internal/bitstream"
	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// recordingEnhancer is a LocalEnhancer that keeps every anchor job it is
// handed, so a test can check the frames the chunk builder reconstructed.
type recordingEnhancer struct {
	*LocalEnhancer
	mu   sync.Mutex
	jobs []wire.AnchorJob
}

func (r *recordingEnhancer) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	r.mu.Lock()
	r.jobs = append(r.jobs, jobs...)
	r.mu.Unlock()
	return r.LocalEnhancer.EnhanceBatch(streamID, jobs)
}

// take returns the jobs recorded since the last call.
func (r *recordingEnhancer) take() []wire.AnchorJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	jobs := r.jobs
	r.jobs = nil
	return jobs
}

// TestPartialReconstructionByteIdentical pins the chunk builder's
// reconstruct-to-the-last-anchor step. Chunks span two GOPs and run at
// the highest anchor fraction the server accepts, so several anchors
// land past packet 0, non-key ones included, and the builder has to
// reconstruct deep into the chunk. The frames handed to the enhancer
// must equal a full decode of the chunk, and the eager pipelined and
// lazy paths must store bytes identical to the serial reference.
func TestPartialReconstructionByteIdentical(t *testing.T) {
	const (
		streamID    = 31
		chunks      = 2
		chunkFrames = 2 * testGOP
	)
	type run struct {
		containers [][]byte
		jobs       [][]wire.AnchorJob
	}
	do := func(cfg ServerConfig) run {
		provider, store := contentOracle(t, chunks*chunkFrames)
		local, err := NewLocalEnhancer(provider)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingEnhancer{LocalEnhancer: local}
		cfg.AnchorFraction = 0.15
		cfg.Logf = t.Logf
		srv, err := NewServer("127.0.0.1:0", rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		streamer, err := NewStreamer(srv.Addr(), streamID, testHello())
		if err != nil {
			t.Fatal(err)
		}
		defer streamer.Close()
		lr := lrFromHR(t, store.get(streamID))
		var out run
		for c := 0; c < chunks; c++ {
			if _, err := streamer.SendChunk(lr[c*chunkFrames : (c+1)*chunkFrames]); err != nil {
				t.Fatalf("chunk %d: %v", c, err)
			}
			if cfg.LazyEnhancement {
				if _, err := fetchChunkRaw(t, srv.Addr(), streamID, c, time.Minute); err != nil {
					t.Fatalf("fetch chunk %d: %v", c, err)
				}
			}
			data, degraded, pending, err := srv.Store().ChunkState(streamID, c)
			if err != nil || degraded || pending {
				t.Fatalf("chunk %d: degraded=%v pending=%v err=%v", c, degraded, pending, err)
			}
			out.containers = append(out.containers, data)
			out.jobs = append(out.jobs, rec.take())
		}
		return out
	}

	serial := do(ServerConfig{MaxInFlightAnchors: -1, PipelineDepth: -1})
	lateInter := false
	for c, data := range serial.containers {
		var container hybrid.Container
		if err := container.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		dec, err := vcodec.NewDecoder(testLRW, testLRH)
		if err != nil {
			t.Fatal(err)
		}
		full := make([]*vcodec.Decoded, len(container.Frames))
		anchors := 0
		for i, f := range container.Frames {
			if full[i], err = dec.Decode(f.VideoPacket); err != nil {
				t.Fatal(err)
			}
			if f.Anchor != nil {
				anchors++
			}
		}
		if len(serial.jobs[c]) != anchors {
			t.Fatalf("chunk %d: %d enhancer jobs for %d stored anchors", c, len(serial.jobs[c]), anchors)
		}
		for _, job := range serial.jobs[c] {
			want := full[job.Packet]
			if container.Frames[job.Packet].Anchor == nil {
				t.Errorf("chunk %d: job for packet %d has no stored anchor", c, job.Packet)
			}
			if job.DisplayIndex != want.Info.DisplayIndex || !reflect.DeepEqual(job.Frame, want.Frame) {
				t.Errorf("chunk %d packet %d: anchor frame differs from a full decode", c, job.Packet)
			}
			if job.Packet > 0 && want.Info.Type != vcodec.Key {
				lateInter = true
			}
		}
	}
	if !lateInter {
		t.Fatal("no non-key anchor past packet 0: reconstruction beyond the key frame went unexercised")
	}

	for _, tc := range []struct {
		name string
		cfg  ServerConfig
	}{
		{"pipelined", ServerConfig{}},
		{"lazy", ServerConfig{LazyEnhancement: true}},
	} {
		got := do(tc.cfg)
		for c := range serial.containers {
			if !bytes.Equal(got.containers[c], serial.containers[c]) {
				t.Errorf("%s: chunk %d container bytes differ from serial reference", tc.name, c)
			}
		}
	}
}

// TestTruncatedLastPacketRejected pins the parse half of the chunk
// builder: a chunk whose last packet is truncated is rejected although
// no selected anchor needs that packet reconstructed. The reply carries
// the error a packet-by-packet Decode of the chunk produces, the
// connection is torn down, and nothing is stored or counted.
func TestTruncatedLastPacketRejected(t *testing.T) {
	const streamID = 5
	provider, store := contentOracle(t, testGOP)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hello := testHello()
	enc, err := vcodec.NewEncoder(hello.Config)
	if err != nil {
		t.Fatal(err)
	}
	hello.Config = enc.Config()
	conn, err := dialRaw(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	payload, err := wire.EncodeHello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.Message{Type: wire.TypeHello, StreamID: streamID, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if reply, err := wire.Read(conn, wire.DefaultMaxPayload); err != nil || reply.Type != wire.TypeAck {
		t.Fatalf("hello reply = %+v, %v", reply, err)
	}

	stream, err := enc.EncodeAll(lrFromHR(t, store.get(streamID)))
	if err != nil {
		t.Fatal(err)
	}
	n := len(stream.Packets)
	infos := make([]vcodec.Info, n)
	packets := make([][]byte, n)
	for i, p := range stream.Packets {
		infos[i] = p.Info
		packets[i] = p.Data
	}
	// The server's default fraction selects anchors that all precede
	// the last packet, so only the parse can catch the damage.
	selected := anchor.SelectTopN(anchor.ZeroInferenceGains(anchor.MetasFromInfos(infos)), max(1, int(0.075*float64(n)+0.5)))
	for _, c := range selected {
		if c.Meta.Packet == n-1 {
			t.Fatal("the last packet is an anchor; the test needs it unselected")
		}
	}
	packets[n-1] = packets[n-1][:len(packets[n-1])/2]

	dec, err := vcodec.NewDecoder(hello.Config.Width, hello.Config.Height)
	if err != nil {
		t.Fatal(err)
	}
	var decodeErr error
	for _, p := range packets {
		if _, decodeErr = dec.Decode(p); decodeErr != nil {
			break
		}
	}
	if decodeErr == nil {
		t.Fatal("truncated packet decodes cleanly; pick another cut")
	}
	want := fmt.Sprintf("media: stream %d packet %d: %v", streamID, n-1, decodeErr)

	if err := wire.Write(conn, wire.Message{Type: wire.TypeChunk, StreamID: streamID, Seq: 1, Payload: wire.EncodeChunk(packets)}); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.Read(conn, wire.DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeError || reply.Seq != 1 || string(reply.Payload) != want {
		t.Fatalf("reply = %v seq %d %q, want error seq 1 %q", reply.Type, reply.Seq, reply.Payload, want)
	}
	if extra, err := wire.Read(conn, wire.DefaultMaxPayload); err == nil {
		t.Errorf("connection survived a corrupt chunk; next frame %v", extra.Type)
	}
	if _, err := srv.Store().Chunk(streamID, 0); err == nil {
		t.Error("corrupt chunk was stored")
	}
	if c := srv.Counters(); c.ChunksProcessed != 0 || c.AnchorsSelected != 0 {
		t.Errorf("counters = %+v, want nothing processed or selected", c)
	}
}

// TestHugeRunChunkRejected: a chunk whose key packet carries a
// coefficient run of 2^64-2 (the largest a 63-zero Exp-Golomb prefix can
// code, which wraps the block index negative if added unchecked) is
// answered with the block's truncation error instead of crashing the
// origin, and the server goes on to serve the next stream's chunk.
func TestHugeRunChunkRejected(t *testing.T) {
	const badID, goodID = 9, 10
	provider, store := contentOracle(t, testGOP)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := dialRaw(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	payload, err := wire.EncodeHello(testHello())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.Message{Type: wire.TypeHello, StreamID: badID, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if reply, err := wire.Read(conn, wire.DefaultMaxPayload); err != nil || reply.Type != wire.TypeAck {
		t.Fatalf("hello reply = %+v, %v", reply, err)
	}
	// A key-frame header (type, quality 50, display index 0), then one
	// coefficient group with the oversized run and level 1.
	var w bitstream.Writer
	w.WriteBits(uint64(vcodec.Key), 2)
	w.WriteBits(50, 7)
	w.WriteUE(0)
	w.WriteBit(1)
	w.WriteUE(1<<64 - 2)
	w.WriteSE(1)
	packet := w.Bytes()
	for len(packet) < 30 {
		packet = append(packet, 0xFF)
	}
	if err := wire.Write(conn, wire.Message{Type: wire.TypeChunk, StreamID: badID, Seq: 1, Payload: wire.EncodeChunk([][]byte{packet})}); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.Read(conn, wire.DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("media: stream %d packet 0: vcodec: intra block (0,0): bitstream: truncated", badID)
	if reply.Type != wire.TypeError || reply.Seq != 1 || string(reply.Payload) != want {
		t.Fatalf("reply = %v seq %d %q, want error seq 1 %q", reply.Type, reply.Seq, reply.Payload, want)
	}
	if _, err := srv.Store().Chunk(badID, 0); err == nil {
		t.Error("crafted chunk was stored")
	}

	streamer, err := NewStreamer(srv.Addr(), goodID, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	if seq, err := streamer.SendChunk(lrFromHR(t, store.get(goodID))); err != nil || seq != 0 {
		t.Fatalf("next stream's chunk: seq %d, err %v", seq, err)
	}
	if _, err := srv.Store().Chunk(goodID, 0); err != nil {
		t.Errorf("next stream's chunk not stored: %v", err)
	}
}

// TestEmptyChunkRejected: a chunk carrying no packets is a protocol
// error answered in order, not a crash of the decode stage.
func TestEmptyChunkRejected(t *testing.T) {
	provider, _ := contentOracle(t, testGOP)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), 8, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	if _, err := streamer.SendChunk(nil); err == nil || !strings.Contains(err.Error(), "no packets") {
		t.Fatalf("empty chunk: err = %v, want a no-packets rejection", err)
	}
	if _, err := srv.Store().Chunk(8, 0); err == nil {
		t.Error("empty chunk was stored")
	}
}
