package icodec

import "testing"

// BenchmarkValidate measures the origin's check of an enhancer reply: a
// parse-only walk of a Q95 anchor.
func BenchmarkValidate(b *testing.B) {
	data, _, err := Encode(anchorFrame(b, 1), Options{Quality: 95})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Validate(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode measures the enhancer's anchor encode at Q95: the
// parallel transform phase plus the serial entropy pass.
func BenchmarkEncode(b *testing.B) {
	f := anchorFrame(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Encode(f, Options{Quality: 95}); err != nil {
			b.Fatal(err)
		}
	}
}
