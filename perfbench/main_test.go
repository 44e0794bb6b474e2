package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Work {
		if _, err := specFor(w.Name, false); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestShortWorkloadsEmitEveryMetric runs a short version of each workload
// untraced and traced and checks that every declared metric is emitted
// with its unit, and nothing else.
func TestShortWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			sp, err := specFor(name, true)
			if err != nil {
				t.Fatal(err)
			}
			meta := runMeta{Workload: name, Seed: 7, Seconds: 1, Trace: traced}
			res, err := bench(sp, &meta, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %+v", name, traced, res.Correct, res.Attempted, res.Failed, meta.Passes)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for n, unit := range want {
				got, ok := res.Metrics[n]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, traced, n, got, ok, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for _, n := range []string{"latency_p50_ms", "latency_p90_ms", "setup_s"} {
				if !traced && res.Metrics[n].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, n, res.Metrics[n].Value)
				}
			}
			if traced {
				if _, err := os.Stat(meta.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
		}
	}
}

// TestGateFiresOnCorruptedReference corrupts one reference container and
// checks that delivering the real one fails the run.
func TestGateFiresOnCorruptedReference(t *testing.T) {
	for _, name := range []string{"live", "vod"} {
		sp, err := specFor(name, true)
		if err != nil {
			t.Fatal(err)
		}
		e, err := setup(sp, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		for c := range e.c.ref {
			bad := append([]byte(nil), e.c.ref[c]...)
			bad[len(bad)/2] ^= 0xff
			e.c.ref[c] = bad
		}
		o := e.measure(3, 0.5)
		e.close()
		e.settle(o)
		if len(o.violations) == 0 {
			t.Errorf("%s: no violation with a corrupted reference", name)
		} else if !strings.Contains(o.violations[0], "differs from the serial eager reference") {
			t.Errorf("%s: unexpected violation %q", name, o.violations[0])
		}
	}
}

// TestRejectsBadArguments checks the command line fails without a result.
func TestRejectsBadArguments(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "live", "--trace", "2"}} {
		if code := run(args, &out, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed %q", out.String())
	}
}
