package driver

import (
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/edge"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/synth"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

const (
	fanoutScale = 3
	fanoutLRW   = 96
	fanoutLRH   = 64
	fanoutGOP   = 12
)

func fanoutQuietf(string, ...any) {}

// fanoutOrigin boots a media origin holding chunksPer chunks for each
// stream. Mirrors the edge package's test origin: synthetic content,
// oracle models, a single-replica enhancer pool whose call counter
// measures enhancement work.
type fanoutOrigin struct {
	srv  *media.Server
	pool *media.EnhancerPool
}

func startFanoutOrigin(tb testing.TB, cfg media.ServerConfig, streams []uint32, chunksPer int) *fanoutOrigin {
	tb.Helper()
	var mu sync.Mutex
	hrByStream := make(map[uint32][]*frame.Frame)
	provider := func(streamID uint32, h wire.Hello) (sr.Model, error) {
		mu.Lock()
		defer mu.Unlock()
		return sr.NewOracleModel(h.Model, hrByStream[streamID])
	}
	local, err := media.NewLocalEnhancer(provider)
	if err != nil {
		tb.Fatal(err)
	}
	pool, err := media.NewEnhancerPool(
		[]media.Replica{media.StaticReplica("solo", local)},
		media.PoolConfig{Logf: fanoutQuietf},
	)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.AnchorFraction = 0.10
	cfg.Logf = fanoutQuietf
	srv, err := media.NewServer("127.0.0.1:0", pool, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = srv.Close()
		_ = pool.Close()
	})
	prof, err := synth.ProfileByName("lol")
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range streams {
		gen, err := synth.NewGenerator(prof, fanoutLRW*fanoutScale, fanoutLRH*fanoutScale, int64(id))
		if err != nil {
			tb.Fatal(err)
		}
		hr := gen.GenerateChunk(fanoutGOP * chunksPer)
		mu.Lock()
		hrByStream[id] = hr
		mu.Unlock()
		streamer, err := media.NewStreamer(srv.Addr(), id, wire.Hello{
			Config: vcodec.Config{
				Width: fanoutLRW, Height: fanoutLRH, FPS: 30, BitrateKbps: 700,
				GOP: fanoutGOP, Mode: vcodec.ModeConstrainedVBR,
			},
			Scale: fanoutScale, Model: sr.HighQuality(), Content: "lol",
		})
		if err != nil {
			tb.Fatal(err)
		}
		for c := 0; c < chunksPer; c++ {
			lr := make([]*frame.Frame, fanoutGOP)
			for i := range lr {
				if lr[i], err = frame.Downscale(hr[c*fanoutGOP+i], fanoutScale); err != nil {
					tb.Fatal(err)
				}
			}
			if _, err := streamer.SendChunk(lr); err != nil {
				tb.Fatalf("stream %d chunk %d: %v", id, c, err)
			}
		}
		if err := streamer.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	return &fanoutOrigin{srv: srv, pool: pool}
}

func startFanoutEdge(tb testing.TB, origin *fanoutOrigin, cfg edge.Config) *edge.Edge {
	tb.Helper()
	cfg.Upstream = origin.srv.Addr()
	if cfg.Logf == nil {
		cfg.Logf = fanoutQuietf
	}
	e, err := edge.NewEdge("127.0.0.1:0", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = e.Close() })
	return e
}

func TestRunFanout(t *testing.T) {
	streams := []uint32{11, 12, 13}
	const chunksPer = 2
	origin := startFanoutOrigin(t, media.ServerConfig{LazyEnhancement: true}, streams, chunksPer)
	e := startFanoutEdge(t, origin, edge.Config{})

	rep, err := RunFanout(FanoutConfig{
		EdgeAddr:          e.Addr(),
		Streams:           streams,
		ChunksPerStream:   chunksPer,
		Viewers:           8,
		SubscribeFraction: 0.25,
		Seed:              1,
		Flash:             &FlashCrowd{Stream: streams[0], AtChunk: 0, ExtraViewers: 4},
		FetchTimeout:      30 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("fanout errors: %+v", rep)
	}
	if rep.FlashViewers != 4 {
		t.Fatalf("flash viewers = %d, want 4", rep.FlashViewers)
	}
	// 6 initial pullers + 4 flash pullers, one catalog pass each.
	if want := int64(10 * chunksPer); rep.Delivered != want {
		t.Fatalf("delivered = %d, want %d", rep.Delivered, want)
	}
	if rep.EgressChunksPerSec <= 0 {
		t.Fatalf("no egress rate: %+v", rep)
	}

	c := e.Counters()
	// At most one miss per distinct (stream, chunk): single flight plus
	// the cache keep duplicate pulls off the origin.
	if max := uint64(len(streams) * chunksPer); c.CacheMisses > max {
		t.Fatalf("misses = %d, want <= %d", c.CacheMisses, max)
	}
	if c.AmortizedRate() <= 0.5 {
		t.Fatalf("amortized rate = %.2f, want > 0.5 (%+v)", c.AmortizedRate(), c)
	}
	// Origin enhanced each chunk at most once (1 anchor per chunk at
	// the test anchor fraction).
	if calls := origin.pool.Counters().Calls; calls > uint64(len(streams)*chunksPer) {
		t.Fatalf("pool calls = %d, want <= %d", calls, len(streams)*chunksPer)
	}
	t.Logf("fanout: %+v edge: %+v", rep, c)
}

// nominalGPUSecondsPerBuild prices one chunk enhancement (one anchor at
// the test fraction) at the modeled 40ms inference latency used across
// the repo's benchmarks, so GPU-seconds are comparable machine to
// machine.
const nominalGPUSecondsPerBuild = 0.040

// BenchmarkEdgeFanout is the PR 9 acceptance benchmark: a Zipf(1.0)
// 64-stream catalog with a 64-viewers-per-stream population (4096
// viewers), cached edge vs no-cache pass-through. One b.N iteration is
// one full fanout run; use -benchtime 1x. Reported metrics:
// egress chunks/s, hit rate, and GPU-seconds per delivered chunk
// (enhancer pool calls x the nominal per-build cost).
func BenchmarkEdgeFanout(b *testing.B) {
	const (
		streams      = 64
		viewersPer   = 64
		chunksPer    = 2
		cachedBudget = int64(4096) // ~1 fetch per viewer
		passBudget   = int64(192)  // every delivery is a fresh build; keep wall time sane
	)
	catalog := make([]uint32, streams)
	for i := range catalog {
		catalog[i] = uint32(100 + i)
	}

	run := func(b *testing.B, passThrough bool, budget int64) {
		// Pass-through pairs with a non-retaining origin: every fetch
		// re-enhances, which is exactly the no-edge-cache cost model.
		origin := startFanoutOrigin(b, media.ServerConfig{
			LazyEnhancement: true, LazyNoRetain: passThrough,
		}, catalog, chunksPer)
		e := startFanoutEdge(b, origin, edge.Config{PassThrough: passThrough})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := RunFanout(FanoutConfig{
				EdgeAddr:        e.Addr(),
				Streams:         catalog,
				ChunksPerStream: chunksPer,
				Viewers:         streams * viewersPer,
				ZipfExponent:    1.0,
				Seed:            7,
				MaxDeliveries:   budget,
				FetchTimeout:    60 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Errors > 0 {
				b.Fatalf("fanout errors: %+v", rep)
			}
			gpuSec := float64(origin.pool.Counters().Calls) * nominalGPUSecondsPerBuild
			b.ReportMetric(rep.EgressChunksPerSec, "chunks/s")
			b.ReportMetric(e.Counters().AmortizedRate(), "hit-rate")
			b.ReportMetric(gpuSec/float64(rep.Delivered), "gpu-sec/chunk")
		}
	}

	b.Run("cached", func(b *testing.B) { run(b, false, cachedBudget) })
	b.Run("passthrough", func(b *testing.B) { run(b, true, passBudget) })
}
