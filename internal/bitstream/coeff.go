package bitstream

import (
	"encoding/binary"
	"math/bits"
)

// Coefficient coding: quantized, zigzag-ordered transform coefficients are
// dominated by zero runs, so they are stored as (run, level) pairs with an
// explicit end-of-block marker. Each pair is a group: a present bit (1),
// the run as unsigned Exp-Golomb and the level as signed Exp-Golomb; a
// lone 0 bit ends the block. This is the shared entropy stage for both
// codecs.

// WriteCoeffs appends a (run, level) coding of coeffs to w and returns
// the number of nonzero coefficients it coded. A trailing all-zero suffix
// costs a single end-of-block code.
//
// It walks a bitmask of each 64-coefficient window's nonzero entries
// instead of testing every coefficient, composes a whole group into one
// code, and flushes its accumulator to the buffer 32 bits at a time. The
// bits are exactly those of writing each group's present bit, run and
// level separately.
func WriteCoeffs(w *Writer, coeffs []int32) (nonzeros int) {
	// acc holds nb pending bits in its low end (nb < 32 between groups,
	// so a group of up to 32 bits never overflows it); bits above them
	// are stale and shift out.
	acc, nb, buf := w.cur, uint(w.bits), w.buf
	next := 0 // index just past the last coded coefficient
	for base := 0; base < len(coeffs); base += 64 {
		mask := nonzeroMask(coeffs[base:min(base+64, len(coeffs))])
		nonzeros += bits.OnesCount64(mask)
		for ; mask != 0; mask &= mask - 1 {
			i := base + bits.TrailingZeros64(mask)
			c := coeffs[i]
			run := uint64(i - next)
			next = i + 1
			ux := run + 1
			ueBits := uint(2*bits.Len64(ux) - 1)
			var su uint64
			if c > 0 {
				su = uint64(2*int64(c) - 1)
			} else {
				su = uint64(-2 * int64(c))
			}
			sx := su + 1
			seBits := uint(2*bits.Len64(sx) - 1)
			if total := 1 + ueBits + seBits; total <= 32 {
				acc = acc<<total | (1<<ueBits|ux)<<seBits | sx
				nb += total
				if nb >= 32 {
					nb -= 32
					buf = binary.BigEndian.AppendUint32(buf, uint32(acc>>nb))
				}
				continue
			}
			// An oversized group goes through the Writer's general
			// methods, which need fewer than 8 bits pending.
			w.buf, w.cur, w.bits = buf, acc, uint8(nb)
			w.flush()
			w.WriteBit(1)
			w.WriteUE(run)
			w.WriteSE(int64(c))
			acc, nb, buf = w.cur, uint(w.bits), w.buf
		}
	}
	w.buf, w.cur, w.bits = buf, acc<<1, uint8(nb+1) // end of block
	w.flush()
	return nonzeros
}

// nonzeroMask returns a mask with bit i set when win[i] != 0; len(win)
// must be at most 64. A full window is scanned as four independent
// quarters so the shift-or chains overlap.
func nonzeroMask(win []int32) uint64 {
	if len(win) == 64 {
		w := (*[64]int32)(win)
		var m0, m1, m2, m3 uint64
		for j := 15; j >= 0; j-- {
			m0 = m0<<1 | nonzero(w[j])
			m1 = m1<<1 | nonzero(w[16+j])
			m2 = m2<<1 | nonzero(w[32+j])
			m3 = m3<<1 | nonzero(w[48+j])
		}
		return m0 | m1<<16 | m2<<32 | m3<<48
	}
	var mask uint64
	for i := len(win) - 1; i >= 0; i-- {
		mask = mask<<1 | nonzero(win[i])
	}
	return mask
}

// nonzero is 1 when c != 0 and 0 otherwise, without a branch: the sign
// bit of c|-c is set exactly when c != 0.
func nonzero(c int32) uint64 { return uint64(uint32(c|-c) >> 31) }

// ReadCoeffs reads a (run, level) coding into dst, which determines the
// block size. Coefficients past the end-of-block marker are zero.
func ReadCoeffs(r *Reader, dst []int32) error {
	clear(dst)
	return decodeCoeffs(r, dst, len(dst))
}

// SkipCoeffs consumes the (run, level) coding of an n-coefficient block
// without storing it: it ends at the bit ReadCoeffs would end at for an
// n-entry dst and fails exactly where ReadCoeffs fails, with the same
// error. It is the parse-only path of callers that only need the stream
// position and its validity.
func SkipCoeffs(r *Reader, n int) error {
	return decodeCoeffs(r, nil, n)
}

// decodeCoeffs is the group decoder behind ReadCoeffs and SkipCoeffs: it
// decodes one block of an n-coefficient size and, when dst is non-nil,
// stores its levels into the zeroed dst[:n].
//
// It takes one unaligned 64-bit load and decodes every group that fits
// in it; shifting off the sub-byte offset leaves zeros below the valid
// bits, so a code whose terminating 1 lies past them measures longer than
// the remaining span and triggers the next load. Near the buffer end, or
// for a group longer than a fresh word, it decodes one group with the
// general ReadBit/ReadUE/ReadSE sequence, which consumes exactly the same
// bits. A run that would step past the block fails with ErrTruncated;
// the check precedes the index update, so no run value can wrap it.
func decodeCoeffs(r *Reader, dst []int32, n int) error {
	buf := r.buf
	idx := 0
	for {
		pos := r.pos
		if pos>>3+8 <= len(buf) {
			word := binary.BigEndian.Uint64(buf[pos>>3:]) << uint(pos&7)
			avail := 64 - pos&7
			for avail > 0 {
				if word>>63 == 0 {
					r.pos = pos + 1 // end of block
					return nil
				}
				w1 := word << 1
				z := bits.LeadingZeros64(w1)
				lw := w1 << uint(2*z+1)
				lz := bits.LeadingZeros64(lw)
				g := 2*z + 2*lz + 3
				if g > avail {
					break
				}
				run := w1<<uint(z)>>uint(63-z) - 1
				if run >= uint64(n-idx) {
					r.pos = pos + g
					return ErrTruncated
				}
				idx += int(run)
				if dst != nil {
					dst[idx] = levelOf(lw<<uint(lz)>>uint(63-lz) - 1)
				}
				idx++
				word <<= uint(g)
				avail -= g
				pos += g
			}
			if pos != r.pos {
				r.pos = pos
				continue
			}
		}
		present, err := r.ReadBit()
		if err != nil {
			return err
		}
		if present == 0 {
			return nil
		}
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		level, err := r.ReadSE()
		if err != nil {
			return err
		}
		if run >= uint64(n-idx) {
			return ErrTruncated
		}
		idx += int(run)
		if dst != nil {
			dst[idx] = int32(level)
		}
		idx++
	}
}

// levelOf maps a zig-zag coded level back to its signed value.
func levelOf(u uint64) int32 {
	if u&1 == 1 {
		return int32(u/2) + 1
	}
	return -int32(u / 2)
}
