package vcodec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/synth"
)

// ingestChunk encodes one 12-frame `lol` chunk from synth seed at the
// serving benchmark's ingest geometry (96×64, 700 kbps, GOP 12,
// constrained VBR).
func ingestChunk(tb testing.TB, seed int64) []Packet {
	tb.Helper()
	p, err := synth.ProfileByName("lol")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 96, 64, seed)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := NewEncoder(Config{Width: 96, Height: 64, FPS: 30, BitrateKbps: 700, GOP: 12, Mode: ModeConstrainedVBR})
	if err != nil {
		tb.Fatal(err)
	}
	pkts, err := enc.EncodeChunk(g.GenerateChunk(12))
	if err != nil {
		tb.Fatal(err)
	}
	return pkts
}

// TestEncodeChunkGolden pins the video packet format: the SHA-256 over
// every packet (length-prefixed) of an ingest chunk for fixed synth
// seeds. Any change to motion search, rate control, the transform or the
// coefficient coding that moves a single output bit fails here; a
// deliberate format change must update the hashes.
func TestEncodeChunkGolden(t *testing.T) {
	want := map[int64]string{
		1:  "f145a684b5915c8a0f4370c7786b63e4f90b8e66f84498492e07a4284c57c5fd",
		42: "27f23cec8f94694ce02494606e16e613d3ec7265c3fd9de2d0ccf76afb177617",
	}
	for _, seed := range []int64{1, 42} {
		pkts := ingestChunk(t, seed)
		h := sha256.New()
		for _, pkt := range pkts {
			h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(pkt.Data))))
			h.Write(pkt.Data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[seed] {
			t.Errorf("seed %d: sha256 %s over %d packets, want %s", seed, got, len(pkts), want[seed])
		}
	}
}
