package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the metrics a user of the system sees.
func endToEnd(o *outcome, setupS float64) metricSet {
	m := metricSet{}
	m.set("setup_s", "s", setupS)
	m.set("latency_p50_ms", "ms", quantile(o.latency, 0.50))
	m.set("latency_p90_ms", "ms", quantile(o.latency, 0.90))
	m.set("enhanced_anchor_share", "ratio", ratio(float64(o.shipped), float64(o.refShip)))
	m.set("success_share", "ratio", 1-ratio(float64(o.failed), float64(o.attempted)))
	m.set("peak_heap_mb", "MB", o.peakHeap)
	return m
}

// perLayer computes the traced run's layer metrics.
func perLayer(e *env, o *outcome, untraced *outcome) metricSet {
	m := metricSet{}
	b, a := o.before, o.after
	wall := a.at.Sub(b.at)
	// Stage averages, spans and device cost cover the instance's life:
	// vod runs its enhancement builds in set-up.
	s := a.stages
	m.set("media.decode_ms_per_chunk", "ms", ratio(s.DecodeMsTotal, float64(s.DecodeCount)))
	m.set("media.select_ms_per_chunk", "ms", ratio(s.SelectMsTotal, float64(s.SelectCount)))
	m.set("media.package_ms_per_chunk", "ms", ratio(s.PackageMsTotal, float64(s.PackageCount)))
	m.set("media.enhance_wait_ms_per_chunk", "ms", ratio(s.EnhanceWaitMsTotal, float64(s.EnhanceWaitCount)))

	var model, selfT, replica, waste, busy time.Duration
	var models, replicaAnchors, poolAnchors int
	var poolCalls, waits, upstream []time.Duration
	for _, s := range o.spans {
		switch s.Name {
		case "model.apply":
			models++
			model += s.Dur
			selfT += s.Self
			busy += s.Busy
			waits = append(waits, s.Wait)
			if !o.anchorShipped(e.c, s) {
				waste += s.Busy
			}
		case "replica.call":
			replica += s.Dur
			replicaAnchors += s.N
		case "pool.call":
			poolCalls = append(poolCalls, s.Dur)
			poolAnchors += s.N
		case "edge.upstream":
			upstream = append(upstream, s.Dur)
		}
	}
	m.set("sr.apply_ms_per_anchor", "ms", ratio(ms(selfT), float64(models)))
	m.set("enhancer.rpc_and_encode_ms_per_anchor", "ms", ratio(ms(replica-model), float64(replicaAnchors)))

	ops := float64(o.chunkOps)
	m.set("runtime.allocs_per_chunk", "count", ratio(float64(a.mallocs-b.mallocs), ops))
	m.set("runtime.alloc_bytes_per_chunk", "bytes", ratio(float64(a.allocBytes-b.allocBytes), ops))
	m.set("runtime.gc_cpu_fraction", "ratio", ratio(a.gcCPU-b.gcCPU, a.allCPU-b.allCPU))
	m.set("process.cpu_share", "ratio", ratio(float64(a.cpu-b.cpu), float64(wall)*float64(runtime.GOMAXPROCS(0))))

	m.set("pool.call_p50_ms", "ms", quantile(poolCalls, 0.50))
	m.set("pool.call_p99_ms", "ms", quantile(poolCalls, 0.99))
	m.set("pool.anchors_per_call", "count", ratio(float64(poolAnchors), float64(len(poolCalls))))
	m.set("pool.retries", "count", float64(a.pool.Retries-b.pool.Retries))
	m.set("pool.deadline_expired", "count", float64(a.pool.DeadlineExpired-b.pool.DeadlineExpired))
	m.set("enhancer.jobs_shed", "count", float64(a.jobs.JobsShed-b.jobs.JobsShed))
	m.set("enhancer.jobs_expired", "count", float64(a.jobs.JobsExpired-b.jobs.JobsExpired))

	m.set("device.busy_share", "ratio", ratio(float64(a.busy-b.busy), float64(wall)*float64(len(e.devices))))
	m.set("device.wait_p99_ms", "ms", quantile(waits, 0.99))
	m.set("device.wasted_share", "ratio", ratio(float64(waste), float64(busy)))
	m.set("device.ms_per_delivered_chunk", "ms", ratio(ms(a.busy), float64(o.delivered+e.warmed)))

	c := e.origin.Counters()
	m.set("media.anchors_selected", "count", float64(c.AnchorsSelected))
	m.set("media.anchors_enhanced", "count", float64(c.AnchorsEnhanced))
	m.set("media.anchors_dropped", "count", float64(c.AnchorsDropped))
	m.set("media.anchors_rejected", "count", float64(c.AnchorsRejected))
	m.set("media.anchors_expired", "count", float64(c.AnchorsExpired))
	m.set("media.chunks_shed", "count", float64(c.ChunksShed))
	m.set("media.chunks_expired", "count", float64(c.ChunksExpired))
	m.set("media.chunks_floored", "count", float64(c.ChunksFloored))
	m.set("media.chunks_degraded", "count", float64(c.ChunksDegraded))
	m.set("media.lazy_builds", "count", float64(a.srv.LazyBuilds))
	m.set("media.brownout_level_max", "level", float64(o.peakLevel))
	m.set("media.admit_to_store_p99_ms", "ms", histQuantile(scrape(e.origin.DistributionHandler()), "neuroscaler_admit_to_store_seconds", 0.99))

	m.set("loadgen.send_block_p99_ms", "ms", quantile(o.blocks, 0.99))
	m.set("loadgen.lag_p99_ms", "ms", quantile(o.lags, 0.99))
	m.set("loadgen.chunk_ack_p50_ms", "ms", quantile(o.acks, 0.50))
	m.set("loadgen.chunk_ack_p99_ms", "ms", quantile(o.acks, 0.99))
	m.set("loadgen.fetch_p50_ms", "ms", quantile(o.fetchLat, 0.50))
	m.set("loadgen.fetch_p99_ms", "ms", quantile(o.fetchLat, 0.99))

	ec := a.edge
	hits, misses, coal := float64(ec.CacheHits-b.edge.CacheHits), float64(ec.CacheMisses-b.edge.CacheMisses), float64(ec.CoalescedWaits-b.edge.CoalescedWaits)
	m.set("edge.hit_share", "ratio", ratio(hits, hits+misses+coal))
	m.set("edge.coalesced_share", "ratio", ratio(coal, hits+misses+coal))
	m.set("edge.admission_rejects", "count", float64(ec.AdmissionRejects-b.edge.AdmissionRejects))
	m.set("edge.evictions", "count", float64(ec.Evictions-b.edge.Evictions))
	m.set("edge.fanout_pushes_per_chunk", "count", ratio(float64(ec.FanoutPushes-b.edge.FanoutPushes), misses))
	var edgeText string
	if e.edge != nil {
		edgeText = scrape(e.edge.MetricsHandler())
	}
	m.set("edge.hit_serve_p99_ms", "ms", histQuantile(edgeText, "neuroscaler_edge_hit_latency_seconds", 0.99))
	m.set("edge.miss_serve_p99_ms", "ms", histQuantile(edgeText, "neuroscaler_edge_miss_latency_seconds", 0.99))
	m.set("edge.upstream_rtt_p50_ms", "ms", quantile(upstream, 0.50))
	m.set("edge.upstream_rtt_p99_ms", "ms", quantile(upstream, 0.99))

	lat, unLat := o.latency, untraced.latency
	m.set("loadgen.latency_p99_ms", "ms", quantile(lat, 0.99))
	m.set("trace.overhead_p50_ms", "ms", quantile(lat, 0.50)-quantile(unLat, 0.50))
	m.set("trace.overhead_p90_ms", "ms", quantile(lat, 0.90)-quantile(unLat, 0.90))
	return m
}

// anchorShipped reports whether the stored container of a model span's chunk
// carries an anchor on a frame with the span's display index.
func (o *outcome) anchorShipped(c *content, s span) bool {
	has := o.storeAnchors[[2]int{int(s.Stream), s.Chunk}]
	for p, idx := range c.display[s.Index/gopLen] {
		if idx == s.Index && p < len(has) && has[p] {
			return true
		}
	}
	return false
}

// scrape renders a handler's GET /metrics exposition.
func scrape(h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// histQuantile reads the named Prometheus histogram from a text
// exposition and returns its q-quantile in ms, interpolating linearly
// inside the bucket that holds it (the +Inf bucket reports its lower
// bound). It returns 0 for an empty or missing histogram.
func histQuantile(text, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		i := strings.Index(rest, `"}`)
		if i < 0 {
			continue
		}
		le, err1 := strconv.ParseFloat(rest[:i], 64)
		if rest[:i] == "+Inf" {
			le, err1 = math.Inf(1), nil
		}
		cum, err2 := strconv.ParseFloat(strings.TrimSpace(rest[i+2:]), 64)
		if err1 == nil && err2 == nil {
			bs = append(bs, bucket{le, cum})
		}
	}
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lower, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank && b.cum > prev {
			if math.IsInf(b.le, 1) {
				return lower * 1000
			}
			return (lower + (b.le-lower)*(rank-prev)/(b.cum-prev)) * 1000
		}
		lower, prev = b.le, b.cum
	}
	return lower * 1000
}

// runMeta describes the host, the code under test and the run.
type runMeta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	CPUModel   string         `json:"cpu_model"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go"`
	Commit     string         `json:"commit"`
	Source     string         `json:"source_sha256"`
	CPUQuota   float64        `json:"cgroup_cpu_quota"`
	Warnings   []string       `json:"warnings,omitempty"`
	Lines      map[string]int `json:"non_test_lines"`
	SetupS     []float64      `json:"setup_s_each"`
	Passes     []passMeta     `json:"passes"`
	SpanFile   string         `json:"span_file,omitempty"`
}

// passMeta summarises one measured pass with its sample counts.
type passMeta struct {
	Pass       string   `json:"pass"`
	Phases     []phase  `json:"phases"`
	Latency    string   `json:"latency"`
	Samples    []sample `json:"samples"`
	Violations []string `json:"violations,omitempty"`
	Failures   []string `json:"failures,omitempty"`
	// HostSteal is the share of host CPU time stolen by the hypervisor
	// during the pass; a high value marks a disturbed measurement.
	HostSteal float64 `json:"host_cpu_steal_share"`
}

type sample struct {
	Name string  `json:"name"`
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	N    int     `json:"n"`
}

func describePass(name string, o *outcome) passMeta {
	p := passMeta{Pass: name, Phases: o.phases, Latency: o.latName, Violations: o.violations, Failures: o.failures,
		HostSteal: ratio(float64(o.after.steal-o.before.steal), float64(o.after.ticks-o.before.ticks))}
	add := func(n string, s []time.Duration) {
		if len(s) > 0 {
			p.Samples = append(p.Samples, sample{n, quantile(s, 0.5), quantile(s, 0.9), quantile(s, 0.99), len(s)})
		}
	}
	add("latency ("+o.latName+")", o.latency)
	add("chunk_ack", o.acks)
	add("fetch", o.fetchLat)
	add("loadgen.lag", o.lags)
	add("loadgen.send_block", o.blocks)
	return p
}

// hostMeta fills in what does not depend on the run.
func hostMeta(m *runMeta) {
	m.NumCPU, m.GOMAXPROCS, m.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Name a commit only when the working directory is itself a git
	// checkout's root; elsewhere git is not run at all.
	m.Commit = "unknown"
	if _, err := os.Stat(".git"); err == nil {
		wd, _ := os.Getwd()
		top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
		if err == nil && strings.TrimSpace(string(top)) == wd {
			if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
				m.Commit = strings.TrimSpace(string(out))
			}
		}
	}
	m.Source = sourceDigest()
	m.CPUQuota = cpuQuota()
	if m.CPUQuota > 0 && m.CPUQuota < float64(m.GOMAXPROCS) {
		m.Warnings = append(m.Warnings, "cgroup CPU quota is below GOMAXPROCS; this Go version does not lower GOMAXPROCS to the quota")
	}
	m.Lines = map[string]int{}
	for _, pkg := range []string{"media", "edge", "wire", "par", "lint"} {
		m.Lines[pkg] = nonTestLines(filepath.Join("internal", pkg))
	}
}

// cpuQuota reads the cgroup v2 (or v1) CPU quota in CPUs; 0 means none.
func cpuQuota() float64 {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		f := strings.Fields(string(b))
		if len(f) == 2 && f[0] != "max" {
			q, e1 := strconv.ParseFloat(f[0], 64)
			p, e2 := strconv.ParseFloat(f[1], 64)
			if e1 == nil && e2 == nil && p > 0 {
				return q / p
			}
		}
		return 0
	}
	qb, e1 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	pb, e2 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if e1 != nil || e2 != nil {
		return 0
	}
	q, e1 := strconv.ParseFloat(strings.TrimSpace(string(qb)), 64)
	p, e2 := strconv.ParseFloat(strings.TrimSpace(string(pb)), 64)
	if e1 != nil || e2 != nil || q <= 0 || p <= 0 {
		return 0
	}
	return q / p
}

// nonTestLines counts the lines of a package's non-test Go files.
func nonTestLines(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if b, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
			n += strings.Count(string(b), "\n")
		}
	}
	return n
}

// sourceDigest hashes every Go source and module file outside the
// benchmark, so results name the code they measured even without git.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\x00")
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
