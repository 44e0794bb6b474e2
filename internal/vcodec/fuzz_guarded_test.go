//go:build fuzz

package vcodec

import (
	"reflect"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/synth"
)

// FuzzParseMatchesDecode throws arbitrary packets at a decoder that
// parses each one and then decodes it (Parse leaves the reference state
// alone, so both see the same state): Parse must fail exactly when
// Decode does, with the same text, and otherwise return a DeepEqual
// Info. The primed flag picks between a decoder that has seen a key
// frame (so the motion and residual parse paths are reachable) and a
// fresh one (mid-GOP join). Guarded behind the fuzz build tag so it only
// compiles for the fuzz smoke job (`go test -tags fuzz -fuzz ...`).
func FuzzParseMatchesDecode(f *testing.F) {
	p, err := synth.ProfileByName("lol")
	if err != nil {
		f.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 48, 32, 1)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := NewEncoder(Config{Width: 48, Height: 32, FPS: 30, BitrateKbps: 200, GOP: 8, AltRefInterval: 2})
	if err != nil {
		f.Fatal(err)
	}
	stream, err := enc.EncodeAll(g.GenerateChunk(5))
	if err != nil {
		f.Fatal(err)
	}
	for _, pkt := range stream.Packets {
		f.Add(pkt.Data, true)
		f.Add(pkt.Data, false)
	}
	f.Add([]byte{}, true)
	key := stream.Packets[0].Data
	f.Fuzz(func(t *testing.T, data []byte, primed bool) {
		d, err := NewDecoderFor(stream)
		if err != nil {
			t.Fatal(err)
		}
		if primed {
			if _, err := d.Decode(key); err != nil {
				t.Fatal(err)
			}
		}
		info, perr := d.Parse(data)
		dec, derr := d.Decode(data)
		switch {
		case (perr == nil) != (derr == nil):
			t.Fatalf("Parse err = %v, Decode err = %v", perr, derr)
		case perr != nil:
			if perr.Error() != derr.Error() {
				t.Fatalf("Parse err %q, Decode err %q", perr, derr)
			}
		case !reflect.DeepEqual(info, dec.Info):
			t.Fatalf("Parse Info %+v, Decode Info %+v", info, dec.Info)
		}
	})
}
