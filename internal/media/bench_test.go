package media

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// benchInferLatency models one anchor's inference time on a remote
// accelerator (tens of milliseconds per anchor for full-frame SR, per
// the paper's GPU measurements). The serving path is latency-bound, not
// compute-bound: the pipelined speedup comes from overlapping these
// waits, matching the paper's serving regime.
const benchInferLatency = 40 * time.Millisecond

// Batched inference follows the amortized curve of gpu.InferBatch: one
// fixed dispatch setup plus a marginal cost per frame. A batch of one —
// a lone anchor — costs exactly benchInferLatency, so benchmark
// comparisons across batch sizes stay honest.
const (
	benchBatchMarginal = 10 * time.Millisecond
	benchBatchSetup    = benchInferLatency - benchBatchMarginal
)

// modeledReplica wraps an in-process enhancer with the modeled inference
// latency, and wraps the display index so a benchmark can loop one GOP
// of content forever without growing the oracle.
type modeledReplica struct {
	inner  AnchorEnhancer
	frames int
}

func (m *modeledReplica) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	time.Sleep(benchBatchSetup + time.Duration(len(jobs))*benchBatchMarginal)
	looped := make([]wire.AnchorJob, len(jobs))
	for i, job := range jobs {
		job.DisplayIndex %= m.frames
		looped[i] = job
	}
	return m.inner.EnhanceBatch(streamID, looped)
}

func (m *modeledReplica) Register(streamID uint32, h wire.Hello) error {
	if r, ok := m.inner.(registrar); ok {
		return r.Register(streamID, h)
	}
	return nil
}

// deviceReplica executes dispatches exclusively, like a real
// accelerator: one kernel runs at a time, so concurrent RPCs queue on
// the device instead of overlapping. This is the regime where batching
// matters — a batch is one dispatch holding the device once, while the
// same anchors sent individually pay the setup serially.
type deviceReplica struct {
	modeledReplica
	mu sync.Mutex
}

func (d *deviceReplica) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.modeledReplica.EnhanceBatch(streamID, jobs)
}

func benchPool(b *testing.B, provider ModelProvider, frames int) *EnhancerPool {
	b.Helper()
	return benchPoolN(b, provider, frames, 4, false)
}

func benchPoolN(b *testing.B, provider ModelProvider, frames, n int, device bool) *EnhancerPool {
	b.Helper()
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		b.Fatal(err)
	}
	replicas := make([]Replica, n)
	for i := range replicas {
		m := modeledReplica{inner: local, frames: frames}
		var enh AnchorEnhancer = &m
		if device {
			enh = &deviceReplica{modeledReplica: m}
		}
		replicas[i] = StaticReplica(fmt.Sprintf("r%d", i), enh)
	}
	pool, err := NewEnhancerPool(replicas, PoolConfig{Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	return pool
}

func benchServerConfig(pipelined bool) ServerConfig {
	cfg := ServerConfig{AnchorFraction: 0.15, Logf: func(string, ...any) {}}
	if !pipelined {
		cfg.MaxInFlightAnchors = -1
		cfg.PipelineDepth = -1
	}
	return cfg
}

// BenchmarkServerChunk measures single-stream chunk throughput through
// the full ingest path (encode → upload → decode+select → enhance on a
// 4-replica pool with modeled inference latency → package → ack),
// serial versus pipelined.
func BenchmarkServerChunk(b *testing.B) {
	for _, mode := range []string{"serial", "pipelined"} {
		b.Run(mode, func(b *testing.B) {
			provider, store := contentOracle(b, testGOP)
			pool := benchPool(b, provider, testGOP)
			defer pool.Close()
			srv, err := NewServer("127.0.0.1:0", pool, benchServerConfig(mode == "pipelined"))
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			streamer, err := NewStreamer(srv.Addr(), 1, testHello())
			if err != nil {
				b.Fatal(err)
			}
			defer streamer.Close()
			lr := lrFromHR(b, store.get(1))

			b.ReportAllocs()
			b.ResetTimer()
			if mode == "serial" {
				for i := 0; i < b.N; i++ {
					if _, err := streamer.SendChunk(lr); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				for i := 0; i < b.N; i++ {
					if _, err := streamer.SendChunkAsync(lr); err != nil {
						b.Fatal(err)
					}
				}
				if err := streamer.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "chunks/s")
			if deg := srv.Counters().ChunksDegraded; deg != 0 {
				b.Fatalf("%d degraded chunks during benchmark", deg)
			}
		})
	}
}

// BenchmarkServerChunkBatch sweeps the anchor-coalescing bound on the
// pipelined path over scarce (1-device) and plentiful (4-device)
// enhancement tiers whose devices execute dispatches exclusively (see
// deviceReplica). Chunks span 4 GOPs (48 frames, 7 selected anchors) so
// caps above 2 actually form larger dispatches; the modeled batch curve
// (fixed setup + marginal per frame) rewards coalescing exactly the way
// gpu.InferBatch does. Amortization dominates when devices are scarce;
// fan-out across devices dominates when they are not. EXPERIMENTS.md
// records the sweep.
func BenchmarkServerChunkBatch(b *testing.B) {
	const gops = 4
	for _, replicas := range []int{1, 4} {
		for _, batch := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("replicas-%d/batch-%d", replicas, batch), func(b *testing.B) {
				frames := gops * testGOP
				provider, store := contentOracle(b, frames)
				pool := benchPoolN(b, provider, frames, replicas, true)
				defer pool.Close()
				cfg := benchServerConfig(true)
				cfg.MaxAnchorBatch = batch
				srv, err := NewServer("127.0.0.1:0", pool, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				streamer, err := NewStreamer(srv.Addr(), 1, testHello())
				if err != nil {
					b.Fatal(err)
				}
				defer streamer.Close()
				lr := lrFromHR(b, store.get(1))

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := streamer.SendChunkAsync(lr); err != nil {
						b.Fatal(err)
					}
				}
				if err := streamer.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "chunks/s")
				if deg := srv.Counters().ChunksDegraded; deg != 0 {
					b.Fatalf("%d degraded chunks during benchmark", deg)
				}
			})
		}
	}
}

// BenchmarkServerChunkMultiStream pushes 4 concurrent streams through
// one server over the 4-replica pool, serial versus pipelined: the
// aggregate case where the shared in-flight bound and per-connection
// pipelines both matter.
func BenchmarkServerChunkMultiStream(b *testing.B) {
	const nStreams = 4
	for _, mode := range []string{"serial", "pipelined"} {
		b.Run(mode, func(b *testing.B) {
			provider, store := contentOracle(b, testGOP)
			pool := benchPool(b, provider, testGOP)
			defer pool.Close()
			srv, err := NewServer("127.0.0.1:0", pool, benchServerConfig(mode == "pipelined"))
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			streamers := make([]*Streamer, nStreams)
			lrs := make([][]*frame.Frame, nStreams)
			for s := range streamers {
				id := uint32(1 + s)
				streamers[s], err = NewStreamer(srv.Addr(), id, testHello())
				if err != nil {
					b.Fatal(err)
				}
				defer streamers[s].Close()
				lrs[s] = lrFromHR(b, store.get(id))
			}

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, nStreams)
			for s := range streamers {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					lr := lrs[s]
					if mode == "serial" {
						for i := 0; i < b.N; i++ {
							if _, err := streamers[s].SendChunk(lr); err != nil {
								errs <- err
								return
							}
						}
						return
					}
					for i := 0; i < b.N; i++ {
						if _, err := streamers[s].SendChunkAsync(lr); err != nil {
							errs <- err
							return
						}
					}
					if err := streamers[s].Flush(); err != nil {
						errs <- err
					}
				}(s)
			}
			wg.Wait()
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N*nStreams)/b.Elapsed().Seconds(), "chunks/s")
			if deg := srv.Counters().ChunksDegraded; deg != 0 {
				b.Fatalf("%d degraded chunks during benchmark", deg)
			}
		})
	}
}
