package analytic

import (
	"math"
	"testing"
	"time"

	"quarc/internal/topology"
)

func TestAvgHopsMatchesTopology(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		p := QuarcUniform(n, 8, 0)
		if math.Abs(p.AvgHops-topology.QuarcAvgHops(n)) > 1e-9 {
			t.Errorf("quarc n=%d: analytic hops %v vs topology %v",
				n, p.AvgHops, topology.QuarcAvgHops(n))
		}
		s := SpidergonUniform(n, 8, 0)
		if math.Abs(s.AvgHops-topology.SpidergonAvgHops(n)) > 1e-9 {
			t.Errorf("spidergon n=%d: analytic hops %v vs topology %v",
				n, s.AvgHops, topology.SpidergonAvgHops(n))
		}
	}
}

func TestMeshAvgHopsMatchesTopology(t *testing.T) {
	for _, wh := range [][2]int{{4, 4}, {3, 5}, {8, 8}} {
		m, _ := topology.NewMesh(wh[0], wh[1], false)
		p := MeshUniform(wh[0], wh[1], 8, 0, false)
		if math.Abs(p.AvgHops-m.AvgHops()) > 1e-9 {
			t.Errorf("mesh %dx%d: analytic %v vs topology %v",
				wh[0], wh[1], p.AvgHops, m.AvgHops())
		}
	}
}

func TestZeroLoadLatency(t *testing.T) {
	p := QuarcUniform(16, 16, 0)
	want := topology.QuarcAvgHops(16) + 16
	if math.Abs(p.ZeroLoadLatency-want) > 1e-9 {
		t.Fatalf("zero-load latency %v, want %v", p.ZeroLoadLatency, want)
	}
	if math.Abs(p.MeanLatency-p.ZeroLoadLatency) > 1e-9 {
		t.Fatal("at lambda=0 the mean latency must equal the zero-load latency")
	}
	if p.MaxChannelUtil != 0 {
		t.Fatal("at lambda=0 utilisation must be zero")
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for i, lam := range []float64{0, 0.005, 0.01, 0.02, 0.03} {
		p := QuarcUniform(16, 16, lam)
		if p.MeanLatency < prev {
			t.Fatalf("latency decreased at step %d: %v < %v", i, p.MeanLatency, prev)
		}
		prev = p.MeanLatency
	}
}

func TestLatencyDivergesNearSaturation(t *testing.T) {
	p0 := QuarcUniform(16, 16, 0)
	sat := p0.SaturationRate
	if math.IsInf(sat, 1) || sat <= 0 {
		t.Fatalf("implausible saturation rate %v", sat)
	}
	pHigh := QuarcUniform(16, 16, sat*0.98)
	if pHigh.MeanLatency < 3*p0.MeanLatency {
		t.Errorf("latency near saturation %v not much larger than zero-load %v",
			pHigh.MeanLatency, p0.MeanLatency)
	}
	pOver := QuarcUniform(16, 16, sat*1.05)
	if !math.IsInf(pOver.MeanLatency, 1) {
		t.Errorf("latency beyond saturation should be +Inf, got %v", pOver.MeanLatency)
	}
}

func TestUtilisationScalesLinearly(t *testing.T) {
	a := QuarcUniform(16, 16, 0.01)
	b := QuarcUniform(16, 16, 0.02)
	if math.Abs(b.MaxChannelUtil-2*a.MaxChannelUtil) > 1e-9 {
		t.Fatalf("utilisation not linear: %v vs %v", a.MaxChannelUtil, b.MaxChannelUtil)
	}
}

func TestSpidergonCrossUtilisationHigherThanQuarcCross(t *testing.T) {
	// The shared Spidergon cross channel carries the flows the Quarc splits
	// over two channels, so for the same load its utilisation contribution
	// is the sum of the two Quarc cross channels. Verified indirectly: the
	// Quarc saturation rate is never below the Spidergon one.
	for _, n := range []int{8, 16, 32, 64} {
		q := QuarcUniform(n, 16, 0)
		s := SpidergonUniform(n, 16, 0)
		if q.SaturationRate < s.SaturationRate-1e-12 {
			t.Errorf("n=%d: quarc saturation %v below spidergon %v",
				n, q.SaturationRate, s.SaturationRate)
		}
	}
}

func TestBroadcastAdvantageGrowsWithN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{8, 16, 32, 64} {
		adv := BroadcastAdvantage(n, 16)
		if adv <= prev {
			t.Fatalf("advantage not growing: n=%d adv=%v prev=%v", n, adv, prev)
		}
		prev = adv
	}
	// Paper: "almost an order of magnitude improvement" for the evaluated
	// configurations.
	if adv := BroadcastAdvantage(64, 16); adv < 5 {
		t.Errorf("n=64 broadcast advantage %v, expected >= 5x", adv)
	}
}

func TestBroadcastCompletionFormulas(t *testing.T) {
	if QuarcBroadcastCompletion(16, 16) != 20 {
		t.Fatalf("quarc completion = %v", QuarcBroadcastCompletion(16, 16))
	}
	s := SpidergonBroadcastCompletion(16, 16, 1)
	if s < 100 || s > 200 {
		t.Fatalf("spidergon completion = %v, expected ~(n/2)(m+2)", s)
	}
}

func TestBadInputsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { QuarcUniform(10, 8, 0) },
		func() { SpidergonUniform(6, 8, 0) },
		func() { MeshUniform(1, 4, 8, 0, false) },
		func() { QuarcUniform(16, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad input accepted")
				}
			}()
			f()
		}()
	}
}

// refMeanLatency is the per-pair form of the latency model: enumerate every
// route and add the waits of its channels one by one. analyze computes the
// same sum from the traversal profile.
func refMeanLatency(k profileKey, msgLen int, lambda float64, ep endpoints) float64 {
	prof := buildProfile(k)
	n := k.w
	if k.fam == famMesh || k.fam == famTorus {
		n = k.w * k.h
	}
	svc := float64(msgLen)
	md1 := func(rate float64) float64 {
		r := rate * svc
		if r >= 1 {
			return math.Inf(1)
		}
		return r * svc / (2 * (1 - r))
	}
	wait := make([]float64, len(prof.count))
	for ch, c := range prof.count {
		wait[ch] = md1(lambda * c / float64(n-1))
	}
	endpointWait := md1(lambda / float64(ep.injChannels))
	if ep.sharedEject {
		endpointWait += md1(lambda)
	}
	var paths pathFunc
	switch k.fam {
	case famQuarc, famSpidergon:
		route := topology.QuarcRouteChannels
		if k.fam == famSpidergon {
			route = topology.SpidergonRouteChannels
		}
		paths = func(s, d int) []int {
			var ids []int
			for _, c := range route(n, s, d) {
				ids = append(ids, ringChannelID(n, c))
			}
			return ids
		}
	default:
		m, _ := topology.NewMesh(k.w, k.h, k.fam == famTorus)
		paths = func(s, d int) []int {
			var ids []int
			for cur := s; cur != d; {
				dir, next := m.Step(cur, d)
				ids = append(ids, int(dir)*n+cur)
				cur = next
			}
			return ids
		}
	}
	latSum, pairs := 0.0, 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := paths(s, d)
			l := endpointWait + float64(len(p)) + svc
			for _, ch := range p {
				l += wait[ch]
			}
			latSum += l
			pairs++
		}
	}
	return latSum / float64(pairs)
}

// Memoized predictions are bit-identical to a fresh enumeration for every
// model and load, and agree with the per-pair latency sum to rounding.
func TestMemoizedPredictionsMatchFreshAnalysis(t *testing.T) {
	cases := []struct {
		model string
		n     int
		k     profileKey
		ep    endpoints
	}{
		{"quarc", 32, profileKey{fam: famQuarc, w: 32}, endpoints{injChannels: 4}},
		{"quarc-1queue", 64, profileKey{fam: famQuarc, w: 64}, endpoints{injChannels: 4}},
		{"spidergon", 32, profileKey{fam: famSpidergon, w: 32}, endpoints{injChannels: 1, sharedEject: true}},
		{"mesh", 64, profileKey{fam: famMesh, w: 8, h: 8}, endpoints{injChannels: 1, sharedEject: true}},
		{"torus", 64, profileKey{fam: famTorus, w: 8, h: 8}, endpoints{injChannels: 1, sharedEject: true}},
	}
	for _, c := range cases {
		for _, lam := range []float64{0, 0.001, 0.004, 0.01, 0.05} {
			for pass := 0; pass < 2; pass++ { // miss, then hit
				got, ok := ForModel(c.model, c.n, 16, lam)
				if !ok {
					t.Fatalf("%s n=%d: no model", c.model, c.n)
				}
				want := analyze(c.n, 16, lam, buildProfile(c.k), c.ep)
				if got != want && !(math.IsNaN(got.MeanLatency) && math.IsNaN(want.MeanLatency)) {
					t.Fatalf("%s n=%d rate=%v pass %d: memoized %+v != fresh %+v",
						c.model, c.n, lam, pass, got, want)
				}
			}
			got, _ := ForModel(c.model, c.n, 16, lam)
			ref := refMeanLatency(c.k, 16, lam, c.ep)
			if math.IsInf(ref, 1) {
				if !math.IsInf(got.MeanLatency, 1) {
					t.Fatalf("%s rate=%v: latency %v, per-pair sum diverges", c.model, lam, got.MeanLatency)
				}
				continue
			}
			if d := math.Abs(got.MeanLatency-ref) / ref; d > 1e-12 {
				t.Fatalf("%s rate=%v: latency %v vs per-pair sum %v (rel %g)",
					c.model, lam, got.MeanLatency, ref, d)
			}
		}
	}
}

// A repeat prediction for a 1024-node topology reuses the memoized profile
// instead of re-enumerating a million routes.
func TestRepeatLargePredictionIsCheap(t *testing.T) {
	for _, model := range []string{"mesh", "torus"} {
		first, ok := ForModel(model, 1024, 16, 0.004)
		if !ok {
			t.Fatalf("%s: no model at N=1024", model)
		}
		start := time.Now()
		again, _ := ForModel(model, 1024, 16, 0.004)
		if el := time.Since(start); el > 10*time.Millisecond {
			t.Errorf("%s N=1024 repeat prediction took %v, want well under 10ms", model, el)
		}
		if again != first {
			t.Errorf("%s: repeat prediction %+v != first %+v", model, again, first)
		}
	}
}

// The memo stays bounded, evicting its oldest profiles.
func TestProfileMemoIsBounded(t *testing.T) {
	for h := 2; h < maxProfiles+6; h++ {
		MeshUniform(2, h, 4, 0.001, false)
	}
	profiles.Lock()
	size, order := len(profiles.m), len(profiles.order)
	profiles.Unlock()
	if size > maxProfiles || order != size {
		t.Fatalf("memo holds %d entries (%d in eviction order), bound %d", size, order, maxProfiles)
	}
}
