package icodec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/neuroscaler/neuroscaler/internal/bitstream"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/metrics"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/synth"
)

func testFrame(t *testing.T, w, h int) *frame.Frame {
	t.Helper()
	p, err := synth.ProfileByName("lol")
	if err != nil {
		t.Fatal(err)
	}
	g, err := synth.NewGenerator(p, w, h, 123)
	if err != nil {
		t.Fatal(err)
	}
	return g.Next()
}

func TestEncodeRejectsBadQuality(t *testing.T) {
	f := frame.MustNew(16, 16)
	for _, q := range []int{0, -1, 101} {
		if _, _, err := Encode(f, Options{Quality: q}); err == nil {
			t.Errorf("Encode accepted quality %d", q)
		}
	}
}

func TestRoundTripHighQuality(t *testing.T) {
	src := testFrame(t, 64, 48)
	data, st, err := Encode(src, Options{Quality: 95})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != len(data) {
		t.Errorf("Stats.Bytes = %d, len = %d", st.Bytes, len(data))
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != src.W || got.H != src.H {
		t.Fatalf("decoded size %dx%d", got.W, got.H)
	}
	psnr, err := metrics.PSNR(src, got)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 38 {
		t.Errorf("q95 round trip PSNR %.2f dB, want >= 38", psnr)
	}
}

func TestQualityOrdersBothSizeAndPSNR(t *testing.T) {
	src := testFrame(t, 64, 48)
	prevSize := 0
	prevPSNR := 0.0
	for _, q := range []int{20, 50, 80, 95} {
		data, _, err := Encode(src, Options{Quality: q})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		psnr, _ := metrics.PSNR(src, got)
		if len(data) < prevSize {
			t.Errorf("q%d output %dB smaller than lower quality %dB", q, len(data), prevSize)
		}
		if psnr < prevPSNR-0.3 {
			t.Errorf("q%d PSNR %.2f below lower quality %.2f", q, psnr, prevPSNR)
		}
		prevSize, prevPSNR = len(data), psnr
	}
}

func TestOddDimensions(t *testing.T) {
	src := testFrame(t, 37, 23)
	data, _, err := Encode(src, Options{Quality: 90})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 37 || got.H != 23 {
		t.Fatalf("odd-size round trip gave %dx%d", got.W, got.H)
	}
	psnr, _ := metrics.PSNR(src, got)
	if psnr < 35 {
		t.Errorf("odd-size PSNR %.2f", psnr)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{0xDE, 0xAD, 0xBE, 0xEF, 1, 0, 16, 0, 16, 50},
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d: Decode accepted garbage", i)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	src := testFrame(t, 32, 32)
	data, _, err := Encode(src, Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Error("Decode accepted truncated stream")
	}
}

func TestEncodeToSizeMeetsBudget(t *testing.T) {
	src := testFrame(t, 64, 48)
	full, _, err := Encode(src, Options{Quality: 100})
	if err != nil {
		t.Fatal(err)
	}
	budget := len(full) / 2
	data, q, _, err := EncodeToSize(src, budget)
	if err != nil {
		t.Fatalf("EncodeToSize: %v", err)
	}
	if len(data) > budget {
		t.Errorf("EncodeToSize returned %dB over %dB budget", len(data), budget)
	}
	if q < 1 || q >= 100 {
		t.Errorf("quality %d suspicious for a halved budget", q)
	}
	if _, err := Decode(data); err != nil {
		t.Errorf("budgeted stream does not decode: %v", err)
	}
}

func TestEncodeToSizeImpossibleBudget(t *testing.T) {
	src := testFrame(t, 64, 48)
	data, q, _, err := EncodeToSize(src, 4)
	if err == nil {
		t.Error("EncodeToSize met an impossible 4-byte budget")
	}
	if q != 1 || len(data) == 0 {
		t.Errorf("fallback should be quality 1, got q=%d len=%d", q, len(data))
	}
}

func TestStatsBlockCount(t *testing.T) {
	src := frame.MustNew(32, 16) // luma 8 blocks, chroma 2x2 blocks each
	_, st, err := Encode(src, Options{Quality: 50})
	if err != nil {
		t.Fatal(err)
	}
	want := (32 / 8 * 16 / 8) + 2*(2*1) // luma 4x2 + 2 chroma planes 2x1
	if st.BlocksCoded != want {
		t.Errorf("BlocksCoded = %d, want %d", st.BlocksCoded, want)
	}
}

// Property: encode/decode round-trips at any valid quality without error
// and preserves dimensions.
func TestQuickRoundTripAnyQuality(t *testing.T) {
	src := testFrame(t, 40, 24)
	f := func(q uint8) bool {
		quality := int(q%100) + 1
		data, _, err := Encode(src, Options{Quality: quality})
		if err != nil {
			return false
		}
		got, err := Decode(data)
		return err == nil && got.W == src.W && got.H == src.H
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestDecodeSurvivesRandomGarbage(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(size%2048))
		rng.Read(data)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked (seed %d): %v", seed, r)
				}
			}()
			_, _ = Decode(data)
		}()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestExtremeContent(t *testing.T) {
	// All-black, all-white, and checkerboard frames must round-trip.
	for name, fill := range map[string]func(*frame.Frame){
		"black": func(f *frame.Frame) { f.Y.Fill(0) },
		"white": func(f *frame.Frame) { f.Y.Fill(255) },
		"checker": func(f *frame.Frame) {
			for y := 0; y < f.H; y++ {
				row := f.Y.Row(y)
				for x := range row {
					if (x+y)%2 == 0 {
						row[x] = 255
					}
				}
			}
		},
	} {
		src := frame.MustNew(32, 32)
		fill(src)
		data, _, err := Encode(src, Options{Quality: 90})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		psnr, _ := metrics.PSNR(src, got)
		if psnr < 25 {
			t.Errorf("%s content round trip %.2f dB", name, psnr)
		}
	}
}

// TestHugeRunRejected: an anchor whose first coefficient group carries
// the largest run a 63-zero Exp-Golomb prefix can code (2^64-2, which
// wraps the block index negative if added unchecked) is rejected by
// Validate and by Decode, fused and two-phase, with the block's
// truncation error instead of a panic.
func TestHugeRunRejected(t *testing.T) {
	const want = "icodec: block (0,0): bitstream: truncated"
	var w bitstream.Writer
	w.WriteBits(magic, 32)
	w.WriteBits(version, 8)
	w.WriteBits(288, 16)
	w.WriteBits(192, 16)
	w.WriteBits(95, 8)
	w.WriteBit(1)
	w.WriteUE(1<<64 - 2)
	w.WriteSE(1)
	data := append(w.Bytes(), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, _, err := Validate(data); err == nil || err.Error() != want {
		t.Errorf("Validate err = %v, want %q", err, want)
	}
	oldWorkers := par.Workers()
	defer par.SetWorkers(oldWorkers)
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		if _, err := Decode(data); err == nil || err.Error() != want {
			t.Errorf("workers %d: Decode err = %v, want %q", workers, err, want)
		}
	}
}
