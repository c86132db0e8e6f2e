package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/sim"
	"quarc/internal/stats"
	"quarc/internal/traffic"
)

// layerTrace accumulates the per-layer counters and host times of traced
// points. Host times are wall-clock nanoseconds; every other field counts
// simulated work, which repeats exactly for a fixed seed.
type layerTrace struct {
	Points    int
	BuildNs   int64
	PointNs   []float64 // host ns per point, in completion order
	StepNs    int64     // time inside Fabric.Step during the kernel phase
	StepCyc   int64
	DrainNs   int64 // time inside Fabric.StepBatch during the drain
	DrainCyc  int64
	KernelNs  int64 // time inside Kernel.Run, fabric ticker included
	TickNs    int64 // time inside the fabric ticker callback
	Events    uint64
	Stepped   uint64
	ActiveSum uint64 // ActiveNodes summed over stepped cycles
	ActiveN   uint64
	Sleeps    uint64
	Hops      uint64
	Delivered uint64
	IdleSkip  int64 // cycles advanced by AdvanceIdle
	Cycles    int64
	Sent      int64
	BacklogMx int
	Workers   int // largest step pool size seen
	Router    router.Stats
}

func (t *layerTrace) add(o *layerTrace) {
	t.Points += o.Points
	t.BuildNs += o.BuildNs
	t.PointNs = append(t.PointNs, o.PointNs...)
	t.StepNs += o.StepNs
	t.StepCyc += o.StepCyc
	t.DrainNs += o.DrainNs
	t.DrainCyc += o.DrainCyc
	t.KernelNs += o.KernelNs
	t.TickNs += o.TickNs
	t.Events += o.Events
	t.Stepped += o.Stepped
	t.ActiveSum += o.ActiveSum
	t.ActiveN += o.ActiveN
	t.Sleeps += o.Sleeps
	t.Hops += o.Hops
	t.Delivered += o.Delivered
	t.IdleSkip += o.IdleSkip
	t.Cycles += o.Cycles
	t.Sent += o.Sent
	if o.BacklogMx > t.BacklogMx {
		t.BacklogMx = o.BacklogMx
	}
	if o.Workers > t.Workers {
		t.Workers = o.Workers
	}
	t.Router.Grants += o.Router.Grants
	t.Router.OccupancySum += o.Router.OccupancySum
	t.Router.Cycles += o.Router.Cycles
	for i := range t.Router.Stalls {
		t.Router.Stalls[i] += o.Router.Stalls[i]
	}
}

// tracedRun rebuilds experiments.RunContext from the simulator's public
// layers — model registry, sim kernel, traffic sources, fabric — and times
// each layer from outside. The loop must stay event-for-event identical to
// RunContext: callers compare its Result with experiments.Run and count any
// difference as a failure, so the per-layer numbers provably describe the
// program being benchmarked. Bursty sources are not replicated (no workload
// uses them).
func tracedRun(cfg experiments.Config) (experiments.Result, *layerTrace, error) {
	start := time.Now()
	tr := &layerTrace{Points: 1}
	cfg = cfg.WithDefaults()
	if cfg.Bursty() {
		return experiments.Result{}, nil, fmt.Errorf("traced replica: bursty sources are not replicated")
	}
	if err := cfg.ValidateWorkload(); err != nil {
		return experiments.Result{}, nil, err
	}
	m, ok := model.Lookup(cfg.ModelName())
	if !ok {
		return experiments.Result{}, nil, fmt.Errorf("traced replica: unknown model %q (registered: %s)",
			cfg.ModelName(), strings.Join(model.Names(), ", "))
	}
	t0 := time.Now()
	fab, nodes, err := m.Build(model.BuildConfig{N: cfg.N, Depth: cfg.Depth})
	tr.BuildNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return experiments.Result{}, nil, err
	}
	workers := cfg.StepWorkers
	if workers == 0 {
		workers = network.DefaultStepWorkers(cfg.N)
	}
	fab.SetStepWorkers(workers)
	defer fab.Close()
	tr.Workers = workers
	cfg.StepWorkers = 0

	var uni, bc, bcDeliv stats.Accumulator
	var mcastCount int64
	nb := cfg.Measure + cfg.Drain + 2
	if nb > 1<<16 {
		nb = 1 << 16
	}
	uniHist := stats.NewHistogram(int(nb), 1)
	bcHist := stats.NewHistogram(int(nb), 1)
	measureEnd := cfg.Warmup + cfg.Measure
	fab.Tracker.OnDone = func(r network.MessageRecord) {
		if r.Gen < cfg.Warmup || r.Gen >= measureEnd {
			return
		}
		lat := float64(r.Last - r.Gen)
		switch r.Class {
		case network.ClassUnicast:
			uni.Add(lat)
			uniHist.Add(lat)
		case network.ClassBroadcast, network.ClassMulticast:
			bc.Add(lat)
			bcHist.Add(lat)
			bcDeliv.Add(float64(r.DeliSum)/float64(r.Delivered) - float64(r.Gen))
			if r.Class == network.ClassMulticast {
				mcastCount++
			}
		}
	}

	var k sim.Kernel
	senders := make([]traffic.Sender, len(nodes))
	for i, nd := range nodes {
		senders[i] = nd
	}
	sources, err := traffic.Install(&k, traffic.Config{
		N: cfg.N, Rate: cfg.Rate, Beta: cfg.Beta, MsgLen: cfg.MsgLen,
		Pattern: cfg.Pattern, HotspotBias: cfg.HotspotBias,
		McastFrac: cfg.McastFrac, McastSize: cfg.McastSize,
		Seed: cfg.Seed, Until: measureEnd,
	}, senders)
	if err != nil {
		return experiments.Result{}, nil, err
	}

	var fabTick *sim.Event
	fabTick = k.Ticker(0, 1, sim.PriFabric, func(now sim.Time) bool {
		t0 := time.Now()
		if lag := now - fab.Now(); lag > 0 {
			fab.AdvanceIdle(lag)
			tr.IdleSkip += lag
		}
		tr.ActiveSum += uint64(fab.ActiveNodes())
		tr.ActiveN++
		ts := time.Now()
		fab.Step()
		tr.StepNs += time.Since(ts).Nanoseconds()
		tr.StepCyc++
		if fab.Idle() {
			if next, ok := k.NextEventTime(); ok && next > now+1 {
				fabTick.SkipTo(next)
			}
		}
		tr.TickNs += time.Since(t0).Nanoseconds()
		return true
	})

	var det stats.SaturationDetector
	sampleEvery := cfg.Measure / 30
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	k.Ticker(cfg.Warmup, sampleEvery, sim.PriStats, func(now sim.Time) bool {
		total := 0
		for _, nd := range nodes {
			total += nd.Backlog()
		}
		if total > tr.BacklogMx {
			tr.BacklogMx = total
		}
		det.Sample(float64(total))
		return now < measureEnd
	})

	var deliveredAtWarmup, deliveredAtEnd uint64
	k.Schedule(cfg.Warmup, sim.PriStats, func(sim.Time) { deliveredAtWarmup = fab.FlitsDelivered() })
	k.Schedule(measureEnd, sim.PriStats, func(sim.Time) { deliveredAtEnd = fab.FlitsDelivered() })

	t0 = time.Now()
	k.Run(measureEnd)
	tr.KernelNs = time.Since(t0).Nanoseconds()
	tr.Events = k.Fired()
	if lag := measureEnd + 1 - fab.Now(); lag > 0 {
		fab.AdvanceIdle(lag)
		tr.IdleSkip += lag
	}

	var drained int64
	drainStop := func() bool { return fab.Tracker.InFlight() == 0 }
	t0 = time.Now()
	for drained < cfg.Drain && fab.Tracker.InFlight() > 0 {
		if fab.Idle() {
			break
		}
		drained += fab.StepBatch(cfg.Drain-drained, drainStop)
	}
	tr.DrainNs = time.Since(t0).Nanoseconds()
	tr.DrainCyc = drained

	quant := func(h *stats.Histogram, a *stats.Accumulator, q float64) float64 {
		if a.Count() == 0 {
			return 0
		}
		v := h.Quantile(q)
		if math.IsInf(v, 1) {
			return a.Max()
		}
		return v - 1
	}
	res := experiments.Result{
		Cfg:           cfg,
		UnicastMean:   uni.Mean(),
		UnicastCI:     uni.CI95(),
		UnicastP50:    quant(uniHist, &uni, 0.50),
		UnicastP95:    quant(uniHist, &uni, 0.95),
		UnicastP99:    quant(uniHist, &uni, 0.99),
		UnicastCount:  uni.Count(),
		BcastMean:     bc.Mean(),
		BcastCI:       bc.CI95(),
		BcastP50:      quant(bcHist, &bc, 0.50),
		BcastP95:      quant(bcHist, &bc, 0.95),
		BcastP99:      quant(bcHist, &bc, 0.99),
		BcastDelivery: bcDeliv.Mean(),
		BcastCount:    bc.Count(),
		McastCount:    mcastCount,
		Throughput:    float64(deliveredAtEnd-deliveredAtWarmup) / float64(cfg.N) / float64(cfg.Measure),
		Leftover:      fab.Tracker.InFlight(),
		Duplicates:    fab.Tracker.Duplicates(),
		Cycles:        measureEnd + drained,
	}
	res.Saturated = det.Saturated() || res.Leftover > 0

	tr.Stepped = fab.SteppedRouters()
	tr.Sleeps = fab.BlockedSleeps()
	tr.Hops = fab.FlitsForwarded()
	tr.Delivered = fab.FlitsDelivered()
	tr.Cycles = res.Cycles
	tr.Sent = traffic.TotalSent(sources)
	tr.Router = fab.RouterStats()
	tr.PointNs = []float64{float64(time.Since(start).Nanoseconds())}
	return res, tr, nil
}
