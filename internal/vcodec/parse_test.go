package vcodec

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/synth"
)

// parseCase is one encoded stream the Parse/Decode equivalence tests
// walk packet by packet.
type parseCase struct {
	name   string
	stream *Stream
}

// parseCases encodes several synth profiles at several bitrates (hence
// quantizer qualities), in both rate modes (altref frames only appear
// under constrained VBR), and at a frame size that is not a multiple of
// any block size. GOP 8 over 12 frames puts a second key frame in each.
func parseCases(t testing.TB) []parseCase {
	t.Helper()
	type spec struct {
		profile string
		w, h    int
		kbps    int
		mode    RateMode
	}
	specs := []spec{
		{"chat", 160, 96, 150, ModeConstrainedVBR},
		{"lol", 160, 96, 800, ModeConstrainedVBR},
		{"fortnite", 160, 96, 4000, ModeConstrainedVBR},
		{"gta", 160, 96, 800, ModeCBR},
		{"minecraft", 44, 30, 300, ModeConstrainedVBR},
	}
	var out []parseCase
	for _, s := range specs {
		p, err := synth.ProfileByName(s.profile)
		if err != nil {
			t.Fatal(err)
		}
		g, err := synth.NewGenerator(p, s.w, s.h, 5)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := NewEncoder(Config{
			Width: s.w, Height: s.h, FPS: 30, BitrateKbps: s.kbps,
			GOP: 8, AltRefInterval: 4, Mode: s.mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := enc.EncodeAll(g.GenerateChunk(12))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, parseCase{name: s.profile, stream: stream})
	}
	return out
}

// requireParseMatchesDecode feeds data to Parse and then Decode on the
// same decoder (Parse must leave its state alone) and fails unless both
// return the same error text or, on success, DeepEqual Infos.
func requireParseMatchesDecode(t *testing.T, d *Decoder, data []byte, label string) (*Decoded, error) {
	t.Helper()
	info, perr := d.Parse(data)
	dec, derr := d.Decode(data)
	switch {
	case (perr == nil) != (derr == nil):
		t.Fatalf("%s: Parse err = %v, Decode err = %v", label, perr, derr)
	case perr != nil:
		if perr.Error() != derr.Error() {
			t.Fatalf("%s: Parse err %q, Decode err %q", label, perr, derr)
		}
	case !reflect.DeepEqual(info, dec.Info):
		t.Fatalf("%s: Parse Info\n%+v\nDecode Info\n%+v", label, info, dec.Info)
	}
	return dec, derr
}

// TestParseMatchesDecode pins Parse's contract on well-formed streams:
// for every key, altref, and inter packet, Parse's Info DeepEquals
// Decode's (ResidualBytes, MVs, and Refs included), and interleaving
// Parse calls leaves the reconstruction bit-identical to a decoder that
// never parsed.
func TestParseMatchesDecode(t *testing.T) {
	seen := map[FrameType]int{}
	for _, c := range parseCases(t) {
		d, err := NewDecoderFor(c.stream)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := DecodeStream(c.stream)
		if err != nil {
			t.Fatal(err)
		}
		for i, pkt := range c.stream.Packets {
			dec, err := requireParseMatchesDecode(t, d, pkt.Data, c.name)
			if err != nil {
				t.Fatalf("%s packet %d: %v", c.name, i, err)
			}
			if !reflect.DeepEqual(dec.Info, pkt.Info) {
				t.Fatalf("%s packet %d: decoded Info differs from the encoder's", c.name, i)
			}
			if !reflect.DeepEqual(dec.Frame, ref[i].Frame) {
				t.Fatalf("%s packet %d: reconstruction changed by interleaved Parse", c.name, i)
			}
			seen[pkt.Info.Type]++
		}
	}
	for _, typ := range []FrameType{Key, AltRef, Inter} {
		if seen[typ] == 0 {
			t.Errorf("no %v packets exercised", typ)
		}
	}
}

// TestParseMatchesDecodeOnCorruptInput pins the error half of the
// contract: on truncated, bit-flipped, and mid-GOP input, Parse fails
// exactly when Decode does, with the same text, from the same decoder
// state. Decode parses and reconstructs block by block with one worker
// and in two phases with more, so both worker counts are checked.
func TestParseMatchesDecodeOnCorruptInput(t *testing.T) {
	cases := parseCases(t)
	oldWorkers := par.Workers()
	defer par.SetWorkers(oldWorkers)
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		requireCorruptInputMatches(t, cases)
	}
}

func requireCorruptInputMatches(t *testing.T, cases []parseCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	rejected := 0
	for _, c := range cases {
		// Mid-GOP join: every non-key packet on a decoder that has never
		// seen a key frame.
		for i, pkt := range c.stream.Packets {
			fresh, _ := NewDecoderFor(c.stream)
			_, err := requireParseMatchesDecode(t, fresh, pkt.Data, c.name+" mid-GOP")
			if pkt.Info.Type != Key && err == nil {
				t.Fatalf("%s packet %d: %v packet accepted before any key frame", c.name, i, pkt.Info.Type)
			}
		}

		for i, pkt := range c.stream.Packets {
			n := len(pkt.Data)
			var bad [][]byte
			for _, cut := range []int{0, 1, 2, n / 4, n / 2, n - 1} {
				if cut >= 0 && cut < n {
					bad = append(bad, pkt.Data[:cut])
				}
			}
			for k := 0; k < 8; k++ {
				flipped := append([]byte(nil), pkt.Data...)
				flipped[rng.Intn(n)] ^= byte(1 << rng.Intn(8))
				bad = append(bad, flipped)
			}
			for _, data := range bad {
				// Judge each corruption from the state the stream leaves
				// the decoder in just before packet i.
				probe, _ := NewDecoderFor(c.stream)
				for _, prev := range c.stream.Packets[:i] {
					if _, err := probe.Decode(prev.Data); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := requireParseMatchesDecode(t, probe, data, c.name); err != nil {
					rejected++
				}
			}
		}
	}
	if rejected == 0 {
		t.Error("no corrupt input was rejected; the error paths went unchecked")
	}
}

// TestParseLeavesReferenceStateAlone checks that Parse never primes the
// decoder: parsing a key frame does not make a following inter frame
// decodable.
func TestParseLeavesReferenceStateAlone(t *testing.T) {
	stream := parseCases(t)[1].stream
	d, _ := NewDecoderFor(stream)
	if _, err := d.Parse(stream.Packets[0].Data); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Parse(stream.Packets[1].Data); err == nil {
		t.Error("Parse of a key frame primed the decoder's reference state")
	}
}
