package bitstream

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	var w Writer
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xABCD, 16)
	w.WriteBit(1)
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Errorf("ReadBits(4) = %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Errorf("ReadBits(16) = %x", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Errorf("ReadBit = %d", v)
	}
}

func TestBytesPadsWithZeros(t *testing.T) {
	var w Writer
	w.WriteBits(0b111, 3)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0b11100000 {
		t.Errorf("Bytes() = %08b", b)
	}
}

func TestBitLen(t *testing.T) {
	var w Writer
	w.WriteBits(0, 13)
	if w.BitLen() != 13 {
		t.Errorf("BitLen = %d, want 13", w.BitLen())
	}
	if w.Len() != 1 {
		t.Errorf("Len = %d, want 1 (complete bytes only)", w.Len())
	}
}

func TestUEKnownValues(t *testing.T) {
	// Classic Exp-Golomb encodings.
	cases := []struct {
		v    uint64
		bits string
	}{
		{0, "1"},
		{1, "010"},
		{2, "011"},
		{3, "00100"},
		{7, "0001000"},
	}
	for _, tc := range cases {
		var w Writer
		w.WriteUE(tc.v)
		got := ""
		r := NewReader(w.Bytes())
		for i := 0; i < len(tc.bits); i++ {
			b, _ := r.ReadBit()
			got += string(rune('0' + b))
		}
		if got != tc.bits {
			t.Errorf("UE(%d) = %s, want %s", tc.v, got, tc.bits)
		}
	}
}

func TestUERoundTrip(t *testing.T) {
	var w Writer
	vals := []uint64{0, 1, 2, 3, 100, 65535, 1 << 32}
	for _, v := range vals {
		w.WriteUE(v)
	}
	r := NewReader(w.Bytes())
	for _, want := range vals {
		got, err := r.ReadUE()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("UE round trip %d -> %d", want, got)
		}
	}
}

func TestSERoundTrip(t *testing.T) {
	var w Writer
	vals := []int64{0, 1, -1, 2, -2, 1000, -1000, 1 << 30, -(1 << 30)}
	for _, v := range vals {
		w.WriteSE(v)
	}
	r := NewReader(w.Bytes())
	for _, want := range vals {
		got, err := r.ReadSE()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("SE round trip %d -> %d", want, got)
		}
	}
}

func TestReaderTruncated(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err != ErrTruncated {
		t.Errorf("ReadBits(9) on 1 byte: err = %v, want ErrTruncated", err)
	}
}

func TestReadUEBadPrefix(t *testing.T) {
	// 9 zero bytes: a prefix of 72 zeros must be rejected, not spin.
	r := NewReader(make([]byte, 9))
	if _, err := r.ReadUE(); err == nil {
		t.Error("ReadUE accepted absurd zero prefix")
	}
}

func TestAlignByte(t *testing.T) {
	r := NewReader([]byte{0x00, 0xFF})
	_, _ = r.ReadBits(3)
	r.AlignByte()
	if r.BitsRead() != 8 {
		t.Errorf("BitsRead after align = %d, want 8", r.BitsRead())
	}
	v, _ := r.ReadBits(8)
	if v != 0xFF {
		t.Errorf("post-align read = %x", v)
	}
	r.AlignByte() // aligning when aligned is a no-op
	if r.BitsRead() != 16 {
		t.Errorf("double align moved position to %d", r.BitsRead())
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	w.WriteBits(0x1, 1)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0x80 {
		t.Errorf("after Reset, Bytes() = %x", b)
	}
}

func TestCoeffsRoundTrip(t *testing.T) {
	coeffs := []int32{90, 0, 0, -3, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}
	var w Writer
	if n := WriteCoeffs(&w, coeffs); n != 4 {
		t.Errorf("WriteCoeffs reports %d nonzero coefficients, want 4", n)
	}
	got := make([]int32, len(coeffs))
	if err := ReadCoeffs(NewReader(w.Bytes()), got); err != nil {
		t.Fatal(err)
	}
	for i := range coeffs {
		if got[i] != coeffs[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got[i], coeffs[i])
		}
	}
}

func TestCoeffsAllZeroIsTiny(t *testing.T) {
	var w Writer
	WriteCoeffs(&w, make([]int32, 64))
	if w.BitLen() != 1 {
		t.Errorf("all-zero block costs %d bits, want 1", w.BitLen())
	}
}

func TestCoeffsOverflowRejected(t *testing.T) {
	// Encode 3 coefficients, decode into a 2-slot block.
	var w Writer
	WriteCoeffs(&w, []int32{1, 1, 1})
	err := ReadCoeffs(NewReader(w.Bytes()), make([]int32, 2))
	if err == nil {
		t.Error("ReadCoeffs accepted more coefficients than block size")
	}
}

// Property: any []int16 block round-trips through WriteCoeffs/ReadCoeffs.
func TestQuickCoeffsRoundTrip(t *testing.T) {
	f := func(raw []int16) bool {
		coeffs := make([]int32, len(raw))
		for i, v := range raw {
			coeffs[i] = int32(v)
		}
		var w Writer
		WriteCoeffs(&w, coeffs)
		got := make([]int32, len(coeffs))
		if err := ReadCoeffs(NewReader(w.Bytes()), got); err != nil {
			return false
		}
		for i := range coeffs {
			if got[i] != coeffs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved UE/SE sequences round-trip.
func TestQuickGolombRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%32) + 1
		var w Writer
		ue := make([]uint64, count)
		se := make([]int64, count)
		for i := 0; i < count; i++ {
			ue[i] = uint64(rng.Intn(1 << 20))
			se[i] = int64(rng.Intn(1<<20) - 1<<19)
			w.WriteUE(ue[i])
			w.WriteSE(se[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < count; i++ {
			u, err := r.ReadUE()
			if err != nil || u != ue[i] {
				return false
			}
			s, err := r.ReadSE()
			if err != nil || s != se[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// hugeRunBlock codes one ordinary group, then a group whose run is the
// largest value a 63-zero Exp-Golomb prefix can carry (2^64-2), then an
// end-of-block bit, padded with tail to exercise the word-at-a-time and
// the byte-wise decoder paths. Added to the block index, such a run wraps
// negative.
func hugeRunBlock(tail int) []byte {
	var w Writer
	w.WriteBit(1)
	w.WriteUE(0)
	w.WriteSE(5)
	w.WriteBit(1)
	w.WriteUE(1<<64 - 2)
	w.WriteSE(1)
	w.WriteBit(0)
	buf := w.Bytes()
	for i := 0; i < tail; i++ {
		buf = append(buf, 0xFF)
	}
	return buf
}

func TestCoeffsHugeRunRejected(t *testing.T) {
	for _, tail := range []int{0, 16} {
		data := hugeRunBlock(tail)
		if err := ReadCoeffs(NewReader(data), make([]int32, 64)); err != ErrTruncated {
			t.Errorf("tail %d: ReadCoeffs err = %v, want ErrTruncated", tail, err)
		}
		if err := SkipCoeffs(NewReader(data), 64); err != ErrTruncated {
			t.Errorf("tail %d: SkipCoeffs err = %v, want ErrTruncated", tail, err)
		}
	}
}

// referenceReadCoeffs is the coefficient decoder written group by group
// on the general ReadBit/ReadUE/ReadSE path, with no word-at-a-time fast
// path: the specification ReadCoeffs and SkipCoeffs are checked against.
func referenceReadCoeffs(r *Reader, dst []int32) error {
	clear(dst)
	idx := 0
	for {
		present, err := r.ReadBit()
		if err != nil || present == 0 {
			return err
		}
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		level, err := r.ReadSE()
		if err != nil {
			return err
		}
		if run >= uint64(len(dst)-idx) {
			return ErrTruncated
		}
		idx += int(run)
		dst[idx] = int32(level)
		idx++
	}
}

// requireCoeffDecodersAgree decodes one n-coefficient block from data at
// bit offset start with referenceReadCoeffs, ReadCoeffs and SkipCoeffs:
// all three must fail with the same text, or all succeed at the same bit
// position with ReadCoeffs storing the reference's coefficients.
func requireCoeffDecodersAgree(t *testing.T, data []byte, start, n int) {
	t.Helper()
	fr, rr, sr := NewReader(data), NewReader(data), NewReader(data)
	fr.pos, rr.pos, sr.pos = start, start, start
	want, got := make([]int32, n), make([]int32, n)
	ferr := referenceReadCoeffs(fr, want)
	for name, err := range map[string]error{"ReadCoeffs": ReadCoeffs(rr, got), "SkipCoeffs": SkipCoeffs(sr, n)} {
		switch {
		case (err == nil) != (ferr == nil):
			t.Fatalf("start %d n %d: %s err = %v, reference err = %v", start, n, name, err, ferr)
		case err != nil:
			if err.Error() != ferr.Error() {
				t.Fatalf("start %d n %d: %s err %q, reference err %q", start, n, name, err, ferr)
			}
		}
	}
	if ferr != nil {
		return
	}
	if rr.pos != fr.pos || sr.pos != fr.pos {
		t.Fatalf("start %d n %d: reference ends at bit %d, ReadCoeffs at %d, SkipCoeffs at %d", start, n, fr.pos, rr.pos, sr.pos)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("start %d n %d: coefficient %d = %d, reference %d", start, n, i, got[i], want[i])
		}
	}
}

// TestCoeffDecodersAgree checks ReadCoeffs and SkipCoeffs against the
// general-path reference decoder on coded blocks (whole and truncated, at
// each sub-byte offset, into blocks of the coded size and smaller) and on
// random bytes.
func TestCoeffDecodersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 200; k++ {
		coeffs := make([]int32, 64)
		for i := range coeffs {
			switch rng.Intn(4) {
			case 0:
				coeffs[i] = int32(rng.Intn(64) - 32)
			case 1:
				coeffs[i] = int32(rng.Int63n(1<<31) - 1<<30)
			}
		}
		var w Writer
		w.WriteBits(uint64(rng.Intn(256)), k%8)
		WriteCoeffs(&w, coeffs)
		end := w.BitLen()
		data := w.Bytes()
		for _, cut := range []int{len(data), len(data) - 1, len(data) / 2} {
			for _, n := range []int{64, 32, 1, 0} {
				requireCoeffDecodersAgree(t, data[:cut], k%8, n)
			}
		}
		// Decoding the coded block must consume exactly its bits.
		r := NewReader(data)
		r.pos = k % 8
		if err := SkipCoeffs(r, 64); err != nil || r.pos != end {
			t.Fatalf("block %d: SkipCoeffs err = %v, ends at %d, want %d", k, err, r.pos, end)
		}
	}
	for k := 0; k < 2000; k++ {
		data := make([]byte, rng.Intn(24))
		rng.Read(data)
		for i := range data {
			// Bias toward zero bits so long Exp-Golomb prefixes occur.
			data[i] &= byte(rng.Intn(256))
		}
		start := 0
		if len(data) > 0 {
			start = rng.Intn(len(data) * 8)
		}
		requireCoeffDecodersAgree(t, data, start, rng.Intn(65))
	}
	for _, tail := range []int{0, 16} {
		requireCoeffDecodersAgree(t, hugeRunBlock(tail), 0, 64)
	}
}

// TestWriteCoeffsMatchesGeneralWriter checks WriteCoeffs byte for byte
// against writing each group's present bit, run and level with the
// Writer's general methods: over lengths below, at and past one 64-entry
// window, levels small enough to batch and large enough to take the
// oversized-group path, and any number of pending bits on entry.
func TestWriteCoeffsMatchesGeneralWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 500; k++ {
		coeffs := make([]int32, []int{0, 1, 17, 63, 64, 65, 130, 200}[k%8])
		for i := range coeffs {
			if rng.Intn(3) == 0 {
				// Log-uniform magnitudes, so every group length from the
				// 5-bit minimum to past 64 bits occurs.
				coeffs[i] = int32(rng.Int63n(1<<uint(rng.Intn(32))) + 1)
				if rng.Intn(2) == 0 {
					coeffs[i] = -coeffs[i]
				}
			}
		}
		prefix, prefixBits := rng.Uint64(), rng.Intn(40)
		var got, want Writer
		got.WriteBits(prefix, prefixBits)
		want.WriteBits(prefix, prefixBits)
		n := WriteCoeffs(&got, coeffs)
		run, nonzeros := uint64(0), 0
		for _, c := range coeffs {
			if c == 0 {
				run++
				continue
			}
			want.WriteBit(1)
			want.WriteUE(run)
			want.WriteSE(int64(c))
			run = 0
			nonzeros++
		}
		want.WriteBit(0)
		if n != nonzeros {
			t.Fatalf("case %d: WriteCoeffs reports %d nonzero coefficients, want %d", k, n, nonzeros)
		}
		if got.BitLen() != want.BitLen() {
			t.Fatalf("case %d: WriteCoeffs wrote %d bits, want %d", k, got.BitLen(), want.BitLen())
		}
		if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
			t.Fatalf("case %d: WriteCoeffs bytes differ from the general writer's", k)
		}
	}
}
