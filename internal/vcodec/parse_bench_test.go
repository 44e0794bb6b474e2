package vcodec

import "testing"

// BenchmarkParseChunk measures the origin's selection-time parse: Parse
// over every packet of one ingest chunk, on a decoder primed with the
// chunk's key frame as the origin's is.
func BenchmarkParseChunk(b *testing.B) {
	pkts := ingestChunk(b, 1)
	d, err := NewDecoder(96, 64)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Decode(pkts[0].Data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkt := range pkts {
			if _, err := d.Parse(pkt.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
