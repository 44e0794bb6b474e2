package icodec

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/synth"
)

// anchorFrame is a 288×192 `lol` synth frame from seed, the serving
// benchmark's super-resolved anchor size.
func anchorFrame(tb testing.TB, seed int64) *frame.Frame {
	tb.Helper()
	p, err := synth.ProfileByName("lol")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 288, 192, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return g.Next()
}

// TestEncodeGolden pins the anchor format: the SHA-256 of Encode's output
// for a fixed anchor-size frame at a high and a mid quality. Any change
// to the transform, quantizer or coefficient coding that moves a single
// output bit fails here; a deliberate format change must update the
// hashes. Both worker counts are checked, since the encoder fuses its
// phases with one worker.
func TestEncodeGolden(t *testing.T) {
	src := anchorFrame(t, 7)
	want := map[int]string{
		95: "054447ca1ef4a16807f849e22aedec8b74c2bf0af48ad5476fa29f7e924069dd",
		50: "cd46c2790d75c3ae7080c328c6438470e9c523c69b42434a3e6bd745201bb9b7",
	}
	oldWorkers := par.Workers()
	defer par.SetWorkers(oldWorkers)
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		for _, q := range []int{95, 50} {
			data, _, err := Encode(src, Options{Quality: q})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want[q] {
				t.Errorf("workers %d Q%d: sha256 %s (%d bytes), want %s", workers, q, got, len(data), want[q])
			}
		}
	}
}
