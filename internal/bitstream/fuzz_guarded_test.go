//go:build fuzz

package bitstream

import "testing"

// FuzzSkipMatchesRead decodes one block from arbitrary bytes, starting
// at an arbitrary bit offset, with an arbitrary block size: ReadCoeffs and
// SkipCoeffs must fail with the general-path reference decoder's error
// text or succeed at its end position (ReadCoeffs with its coefficients).
// Guarded behind the fuzz build tag so it only compiles for the fuzz
// smoke job (`go test -tags fuzz -fuzz ...`).
func FuzzSkipMatchesRead(f *testing.F) {
	var w Writer
	WriteCoeffs(&w, []int32{90, 0, 0, -3, 1, 0, 0, 0, 2, 0, 0, 1 << 20, 0, 0, 0, -7})
	coded := w.Bytes()
	f.Add(coded, uint16(0), uint8(64))
	f.Add(coded, uint16(3), uint8(16))
	f.Add(hugeRunBlock(0), uint16(0), uint8(64))
	f.Add(hugeRunBlock(16), uint16(0), uint8(64))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, start uint16, n uint8) {
		bit := 0
		if len(data) > 0 {
			bit = int(start) % (len(data) * 8)
		}
		requireCoeffDecodersAgree(t, data, bit, int(n))
	})
}
