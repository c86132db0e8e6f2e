package main

import (
	"fmt"
	"runtime"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/rng"
	"quarc/internal/service"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// panelsInput is the paper-panels workload: the nine panels of Figs 9-11,
// the paper's quarc/spidergon pair each, at FastOpts windows.
func panelsInput(seed uint64) ([]experiments.PanelSpec, experiments.RunOpts) {
	var specs []experiments.PanelSpec
	specs = append(specs, experiments.Fig9Panels()...)
	specs = append(specs, experiments.Fig10Panels()...)
	specs = append(specs, experiments.Fig11Panels()...)
	opts := experiments.FastOpts()
	opts.Seed = rng.Derive(seed, 1)
	opts.Workers = runtime.NumCPU()
	return specs, opts
}

// bigPointInput is the big-point workload: a deeply saturated 32x32 mesh
// and a stable 1024-node torus, stepped with the automatic worker pool.
func bigPointInput(seed uint64) []experiments.Config {
	return []experiments.Config{
		{Model: "mesh", N: 1024, MsgLen: 16, Beta: 0, Rate: 0.05,
			Warmup: 100, Measure: 400, Drain: 500, Seed: rng.Derive(seed, 2)},
		{Model: "torus", N: 1024, MsgLen: 16, Beta: 0, Rate: 0.004,
			Warmup: 200, Measure: 800, Drain: 3000, Seed: rng.Derive(seed, 3)},
	}
}

// simSample is what one untraced simulator workload measured.
type simSample struct {
	passS  []float64 // host seconds per pass
	cycles int64     // simulated cycles per pass
	setupS []float64
}

// endToEndMetrics folds a simulator workload's samples into the gated
// metrics.
func (s *simSample) endToEndMetrics(t *tally) map[string]float64 {
	wall := median(s.passS)
	return map[string]float64{
		"wall_s":           wall,
		"sim_cycles_per_s": float64(s.cycles) / wall,
		"peak_rss_mb":      peakRSSMB(),
		"ok_ratio":         float64(t.attempted-t.failed) / float64(t.attempted),
		"setup_s":          median(s.setupS),
	}
}

// buildFabrics is the simulator workloads' set-up: every point's fabric
// built through the model registry (and its step pool sized), then closed.
func buildFabrics(shapes []experiments.Config) error {
	for _, c := range shapes {
		c = c.WithDefaults()
		m, ok := model.Lookup(c.ModelName())
		if !ok {
			return fmt.Errorf("unknown model %q", c.ModelName())
		}
		fab, _, err := m.Build(model.BuildConfig{N: c.N, Depth: c.Depth})
		if err != nil {
			return err
		}
		w := c.StepWorkers
		if w == 0 {
			w = network.DefaultStepWorkers(c.N)
		}
		fab.SetStepWorkers(w)
		fab.Close()
	}
	return nil
}

func timeSetup(shapes []experiments.Config) ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := buildFabrics(shapes); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// panelShapes lists the (model, N, depth) of every point of the panels,
// for the set-up timing: the rate grid does not change what is built.
func panelShapes(specs []experiments.PanelSpec, opts experiments.RunOpts) []experiments.Config {
	var out []experiments.Config
	for _, sp := range specs {
		for _, m := range sp.SweptModels() {
			for i := 0; i < opts.Points; i++ {
				out = append(out, experiments.Config{Model: m, N: sp.N, Depth: opts.Depth, StepWorkers: 1})
			}
		}
	}
	return out
}

// panelPass runs the nine panels once through experiments.RunPanel and
// returns every point's result in sweep order.
func panelPass(specs []experiments.PanelSpec, opts experiments.RunOpts) ([]experiments.Result, error) {
	var res []experiments.Result
	for _, sp := range specs {
		pr, err := experiments.RunPanel(sp, opts)
		if err != nil {
			return nil, fmt.Errorf("panel %s: %w", sp.Name, err)
		}
		for _, m := range pr.Models {
			for _, reps := range pr.Raw[m] {
				res = append(res, reps...)
			}
		}
	}
	return res, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func cyclesOf(rs []experiments.Result) int64 {
	var c int64
	for _, r := range rs {
		c += r.Cycles
	}
	return c
}

// checkPoints counts each point as an operation: it must have measured
// traffic and delivered no duplicate.
func checkPoints(t *tally, rs []experiments.Result) {
	for _, r := range rs {
		t.check(r.UnicastCount > 0 && r.Duplicates == 0, "point %s N=%d rate=%v: %d unicasts, %d duplicates",
			r.Cfg.ModelName(), r.Cfg.N, r.Cfg.Rate, r.UnicastCount, r.Duplicates)
	}
}

// runPaperPanels measures paper-panels: whole passes over the nine panels
// until the time budget is spent; every pass must reproduce the first
// pass's digest exactly.
func runPaperPanels(specs []experiments.PanelSpec, opts experiments.RunOpts, budget time.Duration, passes int, rec *recorder, t *tally) (*simSample, error) {
	s := &simSample{}
	var err error
	if s.setupS, err = timeSetup(panelShapes(specs, opts)); err != nil {
		return nil, err
	}
	start := time.Now()
	var ref string
	for pass := 0; morePasses(pass, passes, start, budget); pass++ {
		runtime.GC()
		t0 := time.Now()
		res, err := panelPass(specs, opts)
		if err != nil {
			return nil, err
		}
		s.passS = append(s.passS, time.Since(t0).Seconds())
		d := digest(res)
		if pass == 0 {
			ref, s.cycles = d, cyclesOf(res)
			checkPoints(t, res)
			rec.emit("digest", map[string]any{"workload": "paper-panels", "points": len(res), "results": d})
		} else {
			t.check(d == ref, "paper-panels pass %d digest %s differs from pass 0 %s", pass, d, ref)
		}
	}
	rec.emit("passes", map[string]any{"workload": "paper-panels", "pass_s": s.passS, "setup_s": s.setupS})
	return s, nil
}

// runBigPoint measures big-point. A serial (StepWorkers=1) pass runs first,
// as warm-up and as the reference every pooled pass must reproduce.
func runBigPoint(cfgs []experiments.Config, budget time.Duration, passes int, rec *recorder, t *tally) (*simSample, error) {
	s := &simSample{}
	var err error
	if s.setupS, err = timeSetup(cfgs); err != nil {
		return nil, err
	}
	serial := make([]experiments.Result, len(cfgs))
	for i, c := range cfgs {
		c.StepWorkers = 1
		if serial[i], err = experiments.Run(c); err != nil {
			return nil, err
		}
	}
	ref := digest(serial)
	start := time.Now()
	for pass := 0; morePasses(pass, passes, start, budget); pass++ {
		t0 := time.Now()
		res, err := bigPointPass(cfgs)
		if err != nil {
			return nil, err
		}
		s.passS = append(s.passS, time.Since(t0).Seconds())
		d := digest(res)
		t.check(d == ref, "big-point pass %d digest %s differs from serial stepping %s", pass, d, ref)
		if pass == 0 {
			s.cycles = cyclesOf(res)
			checkPoints(t, res)
			t.check(res[0].Saturated, "big-point mesh point did not saturate")
			t.check(!res[1].Saturated, "big-point torus point saturated")
			rec.emit("digest", map[string]any{"workload": "big-point", "points": len(res),
				"results": d, "serial": ref})
		}
	}
	rec.emit("passes", map[string]any{"workload": "big-point", "pass_s": s.passS, "setup_s": s.setupS})
	return s, nil
}

// morePasses reports whether another pass runs: a fixed count when passes
// is positive, otherwise at least one and then until the budget is spent.
func morePasses(pass, passes int, start time.Time, budget time.Duration) bool {
	if passes > 0 {
		return pass < passes
	}
	return pass == 0 || time.Since(start) < budget
}

// bigPointPass runs the big points back to back through experiments.Run.
// The heap is collected before each point, so the previous point's fabric
// is never still resident when the next is built and the peak resident
// memory is that of one point, not of how the collector happened to
// interleave two.
func bigPointPass(cfgs []experiments.Config) ([]experiments.Result, error) {
	res := make([]experiments.Result, len(cfgs))
	for i, c := range cfgs {
		runtime.GC()
		r, err := experiments.Run(c)
		if err != nil {
			return nil, err
		}
		res[i] = r
	}
	return res, nil
}

// runRequestFor is the wire request that asks quarcd for cfg.
func runRequestFor(cfg experiments.Config) service.RunRequest {
	return service.RunRequest{
		Topo: cfg.ModelName(), N: cfg.N, MsgLen: cfg.MsgLen, Beta: cfg.Beta, Rate: cfg.Rate,
		Pattern: service.PatternName(cfg.Pattern), HotspotBias: cfg.HotspotBias,
		McastFrac: cfg.McastFrac, McastSize: cfg.McastSize, Depth: cfg.Depth,
		Warmup: cfg.Warmup, Measure: cfg.Measure, Drain: cfg.Drain, Seed: cfg.Seed,
	}
}
