package bitstream_test

import (
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/bitstream"
	"github.com/neuroscaler/neuroscaler/internal/icodec"
	"github.com/neuroscaler/neuroscaler/internal/synth"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
)

// coeffSpan is one run of consecutive coefficient blocks inside a coded
// payload: blocks codes starting at bit start.
type coeffSpan struct {
	data   []byte
	start  int
	blocks int
}

// coeffCorpus is the coefficient data of real coded payloads: the spans
// to parse and, for the writer, every block's decoded coefficients.
type coeffCorpus struct {
	spans  []coeffSpan
	blocks int
	coeffs []int32 // 64 per block, in span order
}

// blocksFor is the 8×8 block count of a w×h 4:2:0 frame's three planes.
func blocksFor(w, h int) int {
	cw, ch := (w+1)/2, (h+1)/2
	return (w+7)/8*((h+7)/8) + 2*((cw+7)/8)*((ch+7)/8)
}

// skipBits advances r by n bits.
func skipBits(tb testing.TB, r *bitstream.Reader, n int) {
	for n > 0 {
		k := min(n, 56)
		if _, err := r.ReadBits(k); err != nil {
			tb.Fatal(err)
		}
		n -= k
	}
}

// newCoeffCorpus decodes every span once with ReadCoeffs, checking that
// the spans end in the payload's final byte, and keeps the coefficients.
func newCoeffCorpus(tb testing.TB, spans []coeffSpan) *coeffCorpus {
	c := &coeffCorpus{spans: spans}
	for _, s := range spans {
		r := bitstream.NewReader(s.data)
		skipBits(tb, r, s.start)
		for i := 0; i < s.blocks; i++ {
			var blk [64]int32
			if err := bitstream.ReadCoeffs(r, blk[:]); err != nil {
				tb.Fatal(err)
			}
			c.coeffs = append(c.coeffs, blk[:]...)
		}
		if end := (r.BitsRead() + 7) / 8; end != len(s.data) {
			tb.Fatalf("span ends at byte %d of %d; corpus offsets are wrong", end, len(s.data))
		}
		c.blocks += s.blocks
	}
	return c
}

// chunkCorpus is the coefficient data of one 12-frame chunk at the
// serving benchmark's ingest geometry (96×64, 700 kbps, GOP 12). Each
// packet's coefficients follow its header (2-bit type, 7-bit quality,
// Exp-Golomb display index) and, for non-key packets, a reference bit and
// two signed Exp-Golomb motion components per 16×16 block.
func chunkCorpus(tb testing.TB) *coeffCorpus {
	const w, h = 96, 64
	p, err := synth.ProfileByName("lol")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := synth.NewGenerator(p, w, h, 1)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := vcodec.NewEncoder(vcodec.Config{Width: w, Height: h, FPS: 30, BitrateKbps: 700, GOP: 12, Mode: vcodec.ModeConstrainedVBR})
	if err != nil {
		tb.Fatal(err)
	}
	pkts, err := enc.EncodeChunk(g.GenerateChunk(12))
	if err != nil {
		tb.Fatal(err)
	}
	mvBlocks := (w + vcodec.MEBlock - 1) / vcodec.MEBlock * ((h + vcodec.MEBlock - 1) / vcodec.MEBlock)
	var spans []coeffSpan
	for _, pkt := range pkts {
		r := bitstream.NewReader(pkt.Data)
		skipBits(tb, r, 9)
		if _, err := r.ReadUE(); err != nil {
			tb.Fatal(err)
		}
		if pkt.Info.Type != vcodec.Key {
			for i := 0; i < mvBlocks; i++ {
				skipBits(tb, r, 1)
				for k := 0; k < 2; k++ {
					if _, err := r.ReadSE(); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
		spans = append(spans, coeffSpan{data: pkt.Data, start: r.BitsRead(), blocks: blocksFor(w, h)})
	}
	return newCoeffCorpus(tb, spans)
}

// anchorCorpus is the coefficient data of one Q95 288×192 anchor, the
// serving benchmark's super-resolved frame size. Its blocks follow an
// 80-bit header.
func anchorCorpus(tb testing.TB) *coeffCorpus {
	const w, h = 288, 192
	p, err := synth.ProfileByName("lol")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := synth.NewGenerator(p, w, h, 1)
	if err != nil {
		tb.Fatal(err)
	}
	data, _, err := icodec.Encode(g.Next(), icodec.Options{Quality: 95})
	if err != nil {
		tb.Fatal(err)
	}
	return newCoeffCorpus(tb, []coeffSpan{{data: data, start: 80, blocks: blocksFor(w, h)}})
}

// benchCorpora runs fn as one sub-benchmark per corpus; an op is one pass
// over every block, and ns/block is reported alongside.
func benchCorpora(b *testing.B, fn func(b *testing.B, c *coeffCorpus)) {
	for _, tc := range []struct {
		name string
		load func(testing.TB) *coeffCorpus
	}{{"chunk96x64", chunkCorpus}, {"anchor288x192", anchorCorpus}} {
		b.Run(tc.name, func(b *testing.B) {
			c := tc.load(b)
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, c)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.blocks), "ns/block")
		})
	}
}

func BenchmarkReadCoeffs(b *testing.B) {
	benchCorpora(b, func(b *testing.B, c *coeffCorpus) {
		var blk [64]int32
		for i := 0; i < b.N; i++ {
			for _, s := range c.spans {
				r := bitstream.NewReader(s.data)
				skipBits(b, r, s.start)
				for k := 0; k < s.blocks; k++ {
					if err := bitstream.ReadCoeffs(r, blk[:]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

func BenchmarkSkipCoeffs(b *testing.B) {
	benchCorpora(b, func(b *testing.B, c *coeffCorpus) {
		for i := 0; i < b.N; i++ {
			for _, s := range c.spans {
				r := bitstream.NewReader(s.data)
				skipBits(b, r, s.start)
				for k := 0; k < s.blocks; k++ {
					if err := bitstream.SkipCoeffs(r, 64); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

func BenchmarkWriteCoeffs(b *testing.B) {
	benchCorpora(b, func(b *testing.B, c *coeffCorpus) {
		var w bitstream.Writer
		for i := 0; i < b.N; i++ {
			w.Reset()
			for k := 0; k < c.blocks; k++ {
				bitstream.WriteCoeffs(&w, c.coeffs[k*64:(k+1)*64])
			}
		}
	})
}
