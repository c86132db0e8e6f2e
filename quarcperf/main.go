// Command quarcperf is quarc's end-to-end benchmark. One process runs one
// named workload for a time budget, checks that every simulated and served
// output is correct, and prints every metric by name and unit; the last
// line of standard output is the result object. With -trace 1 it prints
// the per-layer metrics instead, timed from outside each layer's public
// functions. See README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/router"
)

var workloads = []string{"paper-panels", "big-point", "serve-mix"}

func main() {
	workload := flag.String("workload", "", "workload: paper-panels, big-point or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "time budget of the measurement, in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	rev := flag.String("rev", "", "git revision of the tree under test")
	dirty := flag.Bool("dirty", false, "the tree under test has uncommitted changes")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "scratch"), "directory for data written while running")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "quarcperf: -trace must be 0 or 1")
		os.Exit(2)
	}
	rec := &recorder{w: os.Stdout, host: fingerprint(*rev, *dirty)}
	out, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *scratch, rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quarcperf:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quarcperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run measures one workload and returns the result object.
func run(workload string, seed uint64, budget time.Duration, traced bool, scratch string, rec *recorder) (outcome, error) {
	dir := filepath.Join(scratch, fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	rec.emit("start", map[string]any{"workload": workload, "seed": seed,
		"seconds": budget.Seconds(), "trace": traced})
	t := &tally{}
	var vals map[string]float64
	var err error
	switch {
	case workload == "serve-mix" && traced:
		vals, err = tracedServe(serveConfigFor(budget, 2), seed, dir, rec, t)
	case workload == "serve-mix":
		vals, err = untracedServe(serveConfigFor(budget, 1), seed, dir, rec, t)
	case traced:
		vals, err = tracedSim(workload, seed, dir, rec, t)
	case workload == "paper-panels" || workload == "big-point":
		vals, err = untracedSim(workload, seed, budget, rec, t)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if err != nil {
		return outcome{}, err
	}
	if t.failed > 0 {
		rec.emit("failures", map[string]any{"workload": workload, "failed": t.failed, "first": t.reasons})
		for _, r := range t.reasons {
			fmt.Fprintln(os.Stderr, "quarcperf: check failed:", r)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return buildOutcome(defs, vals, t)
}

func untracedSim(workload string, seed uint64, budget time.Duration, rec *recorder, t *tally) (map[string]float64, error) {
	var s *simSample
	var err error
	if workload == "paper-panels" {
		specs, opts := panelsInput(seed)
		s, err = runPaperPanels(specs, opts, budget, 0, rec, t)
	} else {
		s, err = runBigPoint(bigPointInput(seed), budget, 0, rec, t)
	}
	if err != nil {
		return nil, err
	}
	return s.endToEndMetrics(t), nil
}

// serveConfigFor sizes serve-mix for a time budget: about 70% of it
// is the timed schedule, the rest prefill, boots, warm-up and checks.
func serveConfigFor(budget time.Duration, phases int) serveConfig {
	return serveConfig{rate: serveRate, duration: budget * 7 / 10 / time.Duration(phases), phases: phases,
		hot: 64, boots: setupReps, verify: 16, conns: runtime.NumCPU()}
}

func untracedServe(cfg serveConfig, seed uint64, dir string, rec *recorder, t *tally) (map[string]float64, error) {
	m, samples, err := runServeMix(cfg, seed, filepath.Join(dir, "serve"), "serve-mix", false, rec, t)
	if err != nil {
		return nil, err
	}
	defer m.close()
	return serveEndToEnd(m, samples[0], t), nil
}

// tracedServe runs two schedules on the same server, the second with the
// queue sampler on; the serving layers are read from the second, and a
// sample of its simulated runs is replayed through the traced simulator
// loop.
func tracedServe(cfg serveConfig, seed uint64, dir string, rec *recorder, t *tally) (map[string]float64, error) {
	m, samples, err := runServeMix(cfg, seed, filepath.Join(dir, "serve"), "serve-mix", true, rec, t)
	if err != nil {
		return nil, err
	}
	defer m.close()
	s := samples[1]
	vals := map[string]float64{}
	serveLayers(s, vals)
	cfgs := s.missCfgs
	if len(cfgs) > 12 {
		cfgs = cfgs[:12]
	}
	untraced := make([]experiments.Result, len(cfgs))
	for i, c := range cfgs {
		if untraced[i], err = experiments.Run(c); err != nil {
			return nil, err
		}
	}
	if _, err := replayLayers(cfgs, untraced, 1, vals, rec, t); err != nil {
		return nil, err
	}
	if err := shadowServe(untraced, filepath.Join(dir, "shadow"), vals, t); err != nil {
		return nil, err
	}
	vals["trace.overhead_ratio"] = ratio(s.wall, samples[0].wall)
	return vals, nil
}

// tracedSim runs one untraced pass of a simulator workload, then replays
// every point through the traced loop on the same number of workers,
// checking each point's Result against the untraced one. The serving
// layers, which the simulator workloads do not reach, are measured by the
// shadow pipeline over the workload's results and a short served control
// probe.
func tracedSim(workload string, seed uint64, dir string, rec *recorder, t *tally) (map[string]float64, error) {
	var pass simPass
	switch workload {
	case "paper-panels":
		pass = panelsTracePass(panelsInput(seed))
	case "big-point":
		pass = bigPointTracePass(bigPointInput(seed))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return traceSimulator(workload, pass, controlProbe, seed, dir, rec, t)
}

// simPass runs a simulator workload's points once, untraced, and returns
// their results with the configurations and worker count that reproduce
// them.
type simPass func() (untraced []experiments.Result, cfgs []experiments.Config, workers int, err error)

func panelsTracePass(specs []experiments.PanelSpec, opts experiments.RunOpts) simPass {
	return func() ([]experiments.Result, []experiments.Config, int, error) {
		res, err := panelPass(specs, opts)
		var cfgs []experiments.Config
		for _, r := range res {
			c := r.Cfg
			c.StepWorkers = 1 // what a multi-worker sweep gives its points
			cfgs = append(cfgs, c)
		}
		return res, cfgs, opts.Workers, err
	}
}

func bigPointTracePass(cfgs []experiments.Config) simPass {
	return func() ([]experiments.Result, []experiments.Config, int, error) {
		res, err := bigPointPass(cfgs)
		return res, cfgs, 1, err
	}
}

// controlProbe is the short served schedule that measures the serving
// layers on the simulator workloads' traced runs.
var controlProbe = serveConfig{rate: 60, duration: 1500 * time.Millisecond, phases: 1, hot: 8, boots: 1,
	verify: 2, conns: runtime.NumCPU()}

func traceSimulator(workload string, pass simPass, probe serveConfig, seed uint64, dir string, rec *recorder, t *tally) (map[string]float64, error) {
	t0 := time.Now()
	untraced, cfgs, workers, err := pass()
	if err != nil {
		return nil, err
	}
	untracedWall := time.Since(t0).Seconds()
	vals := map[string]float64{}
	tracedWall, err := replayLayers(cfgs, untraced, workers, vals, rec, t)
	if err != nil {
		return nil, err
	}
	vals["trace.overhead_ratio"] = tracedWall / untracedWall
	if err := shadowServe(untraced, filepath.Join(dir, "shadow"), vals, t); err != nil {
		return nil, err
	}
	m, samples, err := runServeMix(probe, seed, filepath.Join(dir, "probe"), workload+"/control-probe", true, rec, t)
	if err != nil {
		return nil, err
	}
	defer m.close()
	serveLayers(samples[0], vals)
	return vals, nil
}

// replayLayers runs cfgs through the traced loop, fanned across workers
// goroutines in point order the way the sweep engine fans them, checks
// each Result against untraced, and fills the simulator layers' metrics.
// It returns the traced wall time in seconds.
func replayLayers(cfgs []experiments.Config, untraced []experiments.Result, workers int, vals map[string]float64, rec *recorder, t *tally) (float64, error) {
	results := make([]experiments.Result, len(cfgs))
	traces := make([]*layerTrace, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				results[i], traces[i], errs[i] = tracedRun(cfgs[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	agg := &layerTrace{}
	for i := range cfgs {
		if errs[i] != nil {
			return 0, errs[i]
		}
		t.check(digest(results[i]) == digest(untraced[i]), "traced point %d (%s N=%d rate=%v) differs from experiments.Run",
			i, cfgs[i].ModelName(), cfgs[i].N, cfgs[i].Rate)
		agg.add(traces[i])
	}
	rec.emit("digest", map[string]any{"traced_points": len(results), "results": digest(results),
		"router_stats": digest(agg.Router)})
	layerMetrics(agg, workers, wall, vals)
	return wall, nil
}

// layerMetrics folds the aggregated trace into the simulator layers'
// metrics.
func layerMetrics(a *layerTrace, workers int, wall float64, vals map[string]float64) {
	pointS := sum(a.PointNs) / 1e9
	steps := float64(a.StepCyc + a.DrainCyc)
	vals["experiments.points"] = float64(a.Points)
	vals["experiments.point_ms_p50"] = median(a.PointNs) / 1e6
	vals["experiments.point_ms_max"] = maxOf(a.PointNs) / 1e6
	vals["experiments.fanout_busy_ratio"] = ratio(pointS, float64(workers)*wall)
	vals["model.build_ms"] = ratio(float64(a.BuildNs)/1e6, float64(a.Points))
	vals["network.step_ns_per_cycle"] = ratio(float64(a.StepNs), float64(a.StepCyc))
	vals["network.drain_ns_per_cycle"] = ratio(float64(a.DrainNs), float64(a.DrainCyc))
	vals["network.routers_stepped_per_cycle"] = ratio(float64(a.Stepped), steps)
	vals["network.active_nodes_mean"] = ratio(float64(a.ActiveSum), float64(a.ActiveN))
	vals["network.blocked_sleeps"] = float64(a.Sleeps)
	vals["network.flit_hops"] = float64(a.Hops)
	vals["network.flit_hops_per_s"] = ratio(float64(a.Hops), pointS)
	vals["network.flits_delivered"] = float64(a.Delivered)
	vals["network.pool_workers"] = float64(a.Workers)
	vals["network.idle_skipped_cycles"] = float64(a.IdleSkip)
	vals["network.idle_skip_ratio"] = ratio(float64(a.IdleSkip), float64(a.Cycles))
	vals["sim.events_fired"] = float64(a.Events)
	vals["sim.kernel_self_ns_per_event"] = ratio(float64(a.KernelNs-a.TickNs), float64(a.Events))
	vals["traffic.messages_sent"] = float64(a.Sent)
	vals["traffic.source_backlog_max"] = float64(a.BacklogMx)
	vals["router.grants"] = float64(a.Router.Grants)
	vals["router.stalls_no-credit"] = float64(a.Router.Stalls[router.StallNoCredit])
	vals["router.stalls_vc-busy"] = float64(a.Router.Stalls[router.StallVCBusy])
	vals["router.stalls_arb-lost"] = float64(a.Router.Stalls[router.StallArbLost])
	vals["router.mean_occupancy"] = a.Router.MeanOccupancy()
}
