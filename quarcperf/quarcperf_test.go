package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/model"
	"quarc/internal/service"
	"quarc/internal/traffic"
)

func discard() *recorder { return &recorder{w: io.Discard, host: fingerprint("", false)} }

// Tiny versions of the three workloads: same code paths, seconds of work.
func tinyPanels() ([]experiments.PanelSpec, experiments.RunOpts) {
	opts := experiments.FastOpts()
	opts.Warmup, opts.Measure, opts.Drain, opts.Points, opts.Workers = 100, 400, 2000, 2, 2
	return experiments.Fig9Panels()[:1], opts
}

func tinyBigPoint() []experiments.Config {
	return []experiments.Config{
		{Model: "mesh", N: 64, MsgLen: 16, Rate: 0.05, Warmup: 100, Measure: 400, Drain: 500, Seed: 3},
		{Model: "torus", N: 64, MsgLen: 16, Rate: 0.004, Warmup: 200, Measure: 800, Drain: 3000, Seed: 4},
	}
}

var tinyServe = serveConfig{rate: 40, duration: time.Second, phases: 1, hot: 4, boots: 2, verify: 2, conns: 2}

func mustOutcome(t *testing.T, name string, defs []metricDef, vals map[string]float64, tl *tally) {
	t.Helper()
	out, err := buildOutcome(defs, vals, tl)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, out.Failed, out.Attempted, tl.reasons)
	}
	for _, d := range defs {
		if got := out.Metrics[d.Name]; got.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.Name, got.Unit, d.Unit)
		}
	}
	if _, err := json.Marshal(out); err != nil {
		t.Fatalf("%s: result object does not encode: %v", name, err)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names, units and
// workload names the program prints in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	known := map[string]bool{}
	for _, w := range workloads {
		known[w] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
}

// TestSmokeEveryMetric runs every mode at a tiny size and checks that
// each named metric is measured, in its unit, with no failed check.
func TestSmokeEveryMetric(t *testing.T) {
	dir := t.TempDir()
	rec := discard()

	t.Run("paper-panels", func(t *testing.T) {
		tl := &tally{}
		specs, opts := tinyPanels()
		s, err := runPaperPanels(specs, opts, 0, 2, rec, tl)
		if err != nil {
			t.Fatal(err)
		}
		mustOutcome(t, "paper-panels", endToEnd, s.endToEndMetrics(tl), tl)
	})
	t.Run("big-point", func(t *testing.T) {
		tl := &tally{}
		s, err := runBigPoint(tinyBigPoint(), 0, 2, rec, tl)
		if err != nil {
			t.Fatal(err)
		}
		mustOutcome(t, "big-point", endToEnd, s.endToEndMetrics(tl), tl)
	})
	t.Run("serve-mix", func(t *testing.T) {
		tl := &tally{}
		vals, err := untracedServe(tinyServe, 5, dir, rec, tl)
		if err != nil {
			t.Fatal(err)
		}
		mustOutcome(t, "serve-mix", endToEnd, vals, tl)
	})
	t.Run("paper-panels traced", func(t *testing.T) {
		tl := &tally{}
		vals, err := traceSimulator("paper-panels", panelsTracePass(tinyPanels()), tinyServe, 6, dir, rec, tl)
		if err != nil {
			t.Fatal(err)
		}
		mustOutcome(t, "paper-panels traced", perLayer, vals, tl)
	})
	t.Run("big-point traced", func(t *testing.T) {
		tl := &tally{}
		vals, err := traceSimulator("big-point", bigPointTracePass(tinyBigPoint()), tinyServe, 7, dir, rec, tl)
		if err != nil {
			t.Fatal(err)
		}
		mustOutcome(t, "big-point traced", perLayer, vals, tl)
	})
	t.Run("serve-mix traced", func(t *testing.T) {
		tl := &tally{}
		cfg := tinyServe
		cfg.phases = 2
		vals, err := tracedServe(cfg, 8, dir, rec, tl)
		if err != nil {
			t.Fatal(err)
		}
		mustOutcome(t, "serve-mix traced", perLayer, vals, tl)
	})
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("runs left %d entries in their scratch directory", len(left))
	}
}

// TestCorruptedOutputsTripTheCheck proves each output check can fail: a
// served run payload that differs from a local simulation, a hit whose
// bytes differ from the verified payload, and a traced point whose Result
// differs from experiments.Run.
func TestCorruptedOutputsTripTheCheck(t *testing.T) {
	cfg, err := serveRunReq("quarc", 7).Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(service.EncodeRun(res, nil))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	for i, c := range bad {
		if c >= '1' && c <= '8' {
			bad[i]++
			break
		}
	}

	tl := &tally{}
	m := &serveMix{cfg: tinyServe, t: tl, rec: discard(), name: "test"}
	m.verifyRun(cfg, good, "intact payload")
	if tl.failed != 0 {
		t.Fatalf("an intact payload failed the check: %v", tl.reasons)
	}
	m.verifyRun(cfg, bad, "corrupted payload")
	if tl.failed != 1 {
		t.Fatalf("a corrupted payload passed the check")
	}

	hit := request{kind: kindMem, want: good, pair: -1}
	s := &serveSample{resps: []response{{req: &hit, status: http.StatusOK,
		final: service.JobJSON{State: service.StateDone, Cached: true, Result: bad}}}}
	m.checkAnswers(s, 0)
	if tl.failed != 2 {
		t.Fatalf("a hit with corrupted bytes passed the check")
	}

	altered := res
	altered.UnicastMean += 1e-9
	replayLayers([]experiments.Config{cfg}, []experiments.Result{altered}, 1, map[string]float64{}, discard(), tl)
	if tl.failed != 3 {
		t.Fatalf("a traced Result differing from experiments.Run passed the check")
	}
}

// TestTracedReplicaMatchesRun pins the traced loop to experiments.Run on a
// registry sample, at low load and saturated, with collective and hotspot
// traffic, serial and pooled.
func TestTracedReplicaMatchesRun(t *testing.T) {
	for _, name := range []string{"quarc", "spidergon", "mesh", "torus", "ring"} {
		m, ok := model.Lookup(name)
		if !ok {
			t.Fatalf("model %s is not registered", name)
		}
		base := experiments.Config{Model: name, N: m.ExampleN, MsgLen: 8, Beta: 0.05,
			Warmup: 100, Measure: 600, Drain: 3000, Seed: 11}
		variants := map[string]func(*experiments.Config){
			"low":       func(c *experiments.Config) { c.Rate = 0.005 },
			"saturated": func(c *experiments.Config) { c.Rate = 0.3 },
			"multicast": func(c *experiments.Config) { c.Rate = 0.01; c.McastFrac, c.McastSize = 0.3, 3 },
			"hotspot": func(c *experiments.Config) {
				c.Rate, c.Pattern, c.HotspotBias = 0.01, traffic.Hotspot, 0.3
			},
		}
		for vname, v := range variants {
			for _, workers := range []int{1, 2} {
				c := base
				v(&c)
				c.StepWorkers = workers
				want, err := experiments.Run(c)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, vname, err)
				}
				got, _, err := tracedRun(c)
				if err != nil {
					t.Fatalf("%s/%s traced: %v", name, vname, err)
				}
				if digest(got) != digest(want) {
					t.Errorf("%s/%s workers=%d: traced Result\n%+v\ndiffers from experiments.Run\n%+v", name, vname, workers, got, want)
				}
			}
		}
	}
}
