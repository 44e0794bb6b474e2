package vcodec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/neuroscaler/neuroscaler/internal/bitstream"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/synth"
)

// Robustness: decoders face hostile networks, so arbitrary bytes must
// produce errors, never panics or runaway allocation.

func TestDecoderSurvivesRandomGarbage(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(size%2048))
		rng.Read(data)
		d, err := NewDecoder(160, 96)
		if err != nil {
			return false
		}
		// Any outcome but a panic is acceptable; decode errors are the
		// expected result for random bytes.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on garbage (seed %d): %v", seed, r)
				}
			}()
			_, _ = d.Decode(data)
		}()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDecoderSurvivesBitFlips(t *testing.T) {
	frames := testFrames(t, "lol", 8)
	enc, err := NewEncoder(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := enc.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		d, _ := NewDecoderFor(stream)
		d.CaptureResidual = true
		for i, pkt := range stream.Packets {
			data := append([]byte(nil), pkt.Data...)
			if i == trial%len(stream.Packets) && len(data) > 0 {
				data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("trial %d packet %d: decoder panicked: %v", trial, i, r)
					}
				}()
				// A flipped bit may decode to wrong pixels or error out;
				// the decoder just must not crash, and must keep working
				// for later packets if it didn't error.
				if _, err := d.Decode(data); err != nil {
					d, _ = NewDecoderFor(stream) // resync as a player would
				}
			}()
		}
	}
}

func TestDecoderStatefulAfterError(t *testing.T) {
	frames := testFrames(t, "lol", 6)
	enc, _ := NewEncoder(testConfig())
	stream, err := enc.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewDecoderFor(stream)
	if _, err := d.Decode(stream.Packets[0].Data); err != nil {
		t.Fatal(err)
	}
	// Feed garbage, then resume with the real packet: state must survive.
	if _, err := d.Decode([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := d.Decode(stream.Packets[1].Data); err != nil {
		t.Errorf("decoder unusable after a rejected packet: %v", err)
	}
}

func TestSingleFrameStream(t *testing.T) {
	frames := testFrames(t, "chat", 1)
	enc, err := NewEncoder(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := enc.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Packets) != 1 || stream.Packets[0].Info.Type != Key {
		t.Fatalf("single frame should encode as one key packet, got %d packets", len(stream.Packets))
	}
	decoded, err := DecodeStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(VisibleFrames(decoded)) != 1 {
		t.Error("single-frame round trip lost the frame")
	}
}

func TestTinyDimensions(t *testing.T) {
	// Smaller than one motion block and one transform block.
	cfg := Config{Width: 12, Height: 10, FPS: 30, BitrateKbps: 100, GOP: 4}
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := synth.ProfileByName("lol")
	if err != nil {
		t.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 12, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := enc.EncodeAll(g.GenerateChunk(6))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(VisibleFrames(decoded)) != 6 {
		t.Errorf("tiny stream decoded %d frames", len(VisibleFrames(decoded)))
	}
}

// hugeRunKeyPacket is a 30-byte key packet whose first coefficient group
// carries the largest run a 63-zero Exp-Golomb prefix can code, 2^64-2:
// added to the block index unchecked, it wraps negative.
func hugeRunKeyPacket() []byte {
	var w bitstream.Writer
	writeHeader(&w, Key, 50, 0)
	w.WriteBit(1)
	w.WriteUE(1<<64 - 2)
	w.WriteSE(1)
	data := w.Bytes()
	for len(data) < 30 {
		data = append(data, 0xFF)
	}
	return data
}

// TestHugeRunRejected: Parse and Decode, fused and two-phase, reject a
// coefficient run past the block with the block's truncation error
// instead of indexing out of range.
func TestHugeRunRejected(t *testing.T) {
	const want = "vcodec: intra block (0,0): bitstream: truncated"
	data := hugeRunKeyPacket()
	oldWorkers := par.Workers()
	defer par.SetWorkers(oldWorkers)
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		d, err := NewDecoder(96, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Parse(data); err == nil || err.Error() != want {
			t.Errorf("workers %d: Parse err = %v, want %q", workers, err, want)
		}
		if _, err := d.Decode(data); err == nil || err.Error() != want {
			t.Errorf("workers %d: Decode err = %v, want %q", workers, err, want)
		}
	}
}
