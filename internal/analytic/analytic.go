// Package analytic implements analytical latency models for wormhole-routed
// Quarc, Spidergon and mesh networks under uniform traffic.
//
// The paper verified its OMNeT++ simulator "extensively against analytical
// models for the Spidergon and mesh topologies employing wormhole routing"
// (§3.2, ref [8]). This package provides the same cross-check for this
// repository's simulator:
//
//   - exact average hop counts and zero-load latency (avg hops + M) from
//     full path enumeration;
//   - per-channel arrival rates from routing-aware path enumeration, giving
//     channel utilisations, an M/D/1 waiting-time approximation per channel
//     and a mean latency prediction valid at low to moderate load;
//   - the channel-capacity saturation bound (the offered load at which the
//     busiest channel reaches unit utilisation);
//   - closed-form broadcast completion estimates: pipelined BRCP broadcast
//     for the Quarc (diameter + M) versus the store-and-forward unicast
//     chain of the Spidergon (about (N/2)(M + c)).
//
// The integration tests in this package run the flit-level simulator at low
// load and require agreement with these models, reproducing the paper's
// verification methodology.
package analytic

import (
	"fmt"
	"math"
	"sync"

	"quarc/internal/topology"
)

// ErrorBand is the relative error envelope of these closed-form predictions
// against the flit-level simulator, as pinned by this package's validation
// suite: every covered topology agrees within 10% at low load (measured
// +0.1%..+6.0%). Degraded serving answers quote it so clients know how far
// an analytic estimate may sit from the simulated truth.
const ErrorBand = 0.10

// Prediction is the analytical summary for a topology/workload pair.
type Prediction struct {
	N               int
	MsgLen          int
	Lambda          float64 // offered messages/node/cycle
	AvgHops         float64
	ZeroLoadLatency float64 // avg hops + M
	MeanLatency     float64 // with M/D/1 channel waiting
	MaxChannelUtil  float64
	SaturationRate  float64 // lambda at which the busiest channel saturates
}

// pathFunc enumerates the channel ids used by the route s -> d.
type pathFunc func(s, d int) []int

// endpoints describes the adapter-side channels: how many injection queues
// share the node's offered load, and whether ejection is a shared arbitrated
// port (Spidergon, mesh) or dedicated per input (Quarc all-port).
type endpoints struct {
	injChannels int
	sharedEject bool
}

// profile is the load-independent half of the channel-level model: how many
// source/destination pairs route over each channel. Every prediction for a
// topology is a function of its profile, the message length and the load,
// so the O(N^2 x hops) path enumeration runs once per topology (see
// profileFor) rather than once per prediction.
type profile struct {
	count        []float64 // pair traversals per channel
	totHops      int
	pairs        int
	maxTraversal float64
}

// traverse enumerates every route of an n-node topology.
func traverse(n, numChannels int, paths pathFunc) *profile {
	p := &profile{count: make([]float64, numChannels)}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			path := paths(s, d)
			p.totHops += len(path)
			p.pairs++
			for _, ch := range path {
				p.count[ch]++
			}
		}
	}
	for _, c := range p.count {
		if c > p.maxTraversal {
			p.maxTraversal = c
		}
	}
	return p
}

// analyze runs the generic channel-level model over a traversal profile.
func analyze(n, msgLen int, lambda float64, prof *profile, ep endpoints) Prediction {
	if msgLen < 2 {
		panic("analytic: message length must be at least 2")
	}
	avgHops := float64(prof.totHops) / float64(prof.pairs)

	// Channel message rate: each node offers lambda msgs/cycle uniformly
	// over n-1 destinations. Each channel's M/D/1 wait is paid once per
	// pair routed over it, so the pair-summed path waiting is the
	// traversal-weighted sum of channel waits.
	svc := float64(msgLen) // flit-cycles a message occupies a channel
	maxUtil, pathWait := 0.0, 0.0
	for _, c := range prof.count {
		if c == 0 {
			continue // on no route: contributes neither load nor waiting
		}
		rho := lambda * c / float64(n-1) * svc
		if rho > maxUtil {
			maxUtil = rho
		}
		if rho < 1 {
			// M/D/1 mean waiting time: rho * S / (2 (1 - rho)).
			pathWait += c * (rho * svc / (2 * (1 - rho)))
		} else {
			pathWait = math.Inf(1)
		}
	}

	// Endpoint waiting: the injection queue(s) see the node's own offered
	// load; with uniform traffic each node also receives lambda messages per
	// cycle, so a shared ejection port is an M/D/1 server at the same rate.
	md1 := func(rate float64) float64 {
		r := rate * svc
		if r >= 1 {
			return math.Inf(1)
		}
		return r * svc / (2 * (1 - r))
	}
	endpointWait := md1(lambda / float64(ep.injChannels))
	if ep.sharedEject {
		endpointWait += md1(lambda)
	}

	// Mean latency over pairs: endpoint waiting + hops + M + per-channel
	// waiting along the path.
	pairs := float64(prof.pairs)
	latSum := pairs*(endpointWait+float64(msgLen)) + float64(prof.totHops) + pathWait

	sat := math.Inf(1)
	if prof.maxTraversal > 0 {
		sat = float64(n-1) / (prof.maxTraversal * svc)
	}
	return Prediction{
		N: n, MsgLen: msgLen, Lambda: lambda,
		AvgHops:         avgHops,
		ZeroLoadLatency: avgHops + float64(msgLen),
		MeanLatency:     latSum / pairs,
		MaxChannelUtil:  maxUtil,
		SaturationRate:  sat,
	}
}

// Topology families with a traversal profile.
const (
	famQuarc = iota
	famSpidergon
	famMesh
	famTorus
)

// profileKey names one topology instance: the family and its dimensions
// (w = N, h = 0 for the rings).
type profileKey struct {
	fam  int
	w, h int
}

// maxProfiles bounds the profile memo. A profile costs 8 bytes per channel
// (32 KiB at N = 1024), and the serving layer asks about a handful of
// topologies at a time.
const maxProfiles = 32

// profiles memoizes traversal profiles. It never changes a result — a
// profile is a pure function of its key — only how often the enumeration
// runs; entries are evicted oldest first.
var profiles struct {
	sync.Mutex
	m     map[profileKey]*profile
	order []profileKey
}

// profileFor returns the memoized profile of k, enumerating it on a miss.
// The enumeration runs outside the lock, so concurrent first requests may
// both compute it; they agree, and the first insert wins.
func profileFor(k profileKey) *profile {
	profiles.Lock()
	p := profiles.m[k]
	profiles.Unlock()
	if p != nil {
		return p
	}
	p = buildProfile(k)
	profiles.Lock()
	defer profiles.Unlock()
	if q := profiles.m[k]; q != nil {
		return q
	}
	if profiles.m == nil {
		profiles.m = make(map[profileKey]*profile)
	}
	if len(profiles.order) == maxProfiles {
		delete(profiles.m, profiles.order[0])
		profiles.order = append(profiles.order[:0], profiles.order[1:]...)
	}
	profiles.m[k] = p
	profiles.order = append(profiles.order, k)
	return p
}

// buildProfile enumerates the routes of topology k. Dimensions are
// validated by the exported entry points before any profile is requested.
func buildProfile(k profileKey) *profile {
	switch k.fam {
	case famQuarc, famSpidergon:
		n := k.w
		route := topology.QuarcRouteChannels
		if k.fam == famSpidergon {
			route = topology.SpidergonRouteChannels
		}
		return traverse(n, 5*n, func(s, d int) []int {
			chs := route(n, s, d)
			ids := make([]int, len(chs))
			for i, c := range chs {
				ids[i] = ringChannelID(n, c)
			}
			return ids
		})
	case famMesh, famTorus:
		m, err := topology.NewMesh(k.w, k.h, k.fam == famTorus)
		if err != nil {
			panic(fmt.Sprintf("analytic: %v", err))
		}
		n := m.N()
		// Channel id: direction(4) * n + from-node. One path buffer serves
		// every pair: traverse consumes a path before asking for the next.
		var ids []int
		return traverse(n, 4*n, func(s, d int) []int {
			ids = ids[:0]
			cur := s
			for cur != d {
				dir, next := m.Step(cur, d)
				ids = append(ids, int(dir)*n+cur)
				cur = next
			}
			return ids
		})
	}
	panic(fmt.Sprintf("analytic: unknown topology family %d", k.fam))
}

// channel id packing for the ring topologies: kind*N + from.
func ringChannelID(n int, ch topology.Channel) int {
	return int(ch.Kind)*n + ch.From
}

// QuarcUniform predicts uniform-traffic unicast behaviour of an n-node
// Quarc.
func QuarcUniform(n, msgLen int, lambda float64) Prediction {
	if err := topology.ValidateRingSize(n); err != nil {
		panic(fmt.Sprintf("analytic: %v", err))
	}
	return analyze(n, msgLen, lambda, profileFor(profileKey{fam: famQuarc, w: n}),
		endpoints{injChannels: 4, sharedEject: false})
}

// SpidergonUniform predicts uniform-traffic unicast behaviour of an n-node
// Spidergon.
func SpidergonUniform(n, msgLen int, lambda float64) Prediction {
	if err := topology.ValidateRingSize(n); err != nil {
		panic(fmt.Sprintf("analytic: %v", err))
	}
	return analyze(n, msgLen, lambda, profileFor(profileKey{fam: famSpidergon, w: n}),
		endpoints{injChannels: 1, sharedEject: true})
}

// MeshUniform predicts uniform-traffic unicast behaviour of a w x h mesh
// (or torus) under XY routing.
func MeshUniform(w, h, msgLen int, lambda float64, torus bool) Prediction {
	if _, err := topology.NewMesh(w, h, torus); err != nil {
		panic(fmt.Sprintf("analytic: %v", err))
	}
	fam := famMesh
	if torus {
		fam = famTorus
	}
	return analyze(w*h, msgLen, lambda, profileFor(profileKey{fam: fam, w: w, h: h}),
		endpoints{injChannels: 1, sharedEject: true})
}

// ForModel dispatches to the closed-form uniform-unicast model of a
// registry model by name, validating the size instead of panicking: ok is
// false for models with no analytical model (ring, and anything registered
// later) and for sizes the model cannot describe. The Quarc ablation
// presets map onto the Quarc model — they share its topology and routing,
// so the channel-level analysis is identical; only the endpoint queueing
// differs, a second-order effect at the low loads where the model is valid.
// Mesh and torus sizes must be squares (the registry's builds are square).
func ForModel(model string, n, msgLen int, lambda float64) (Prediction, bool) {
	if msgLen < 2 || lambda < 0 {
		return Prediction{}, false
	}
	switch model {
	case "quarc", "quarc-chainbcast", "quarc-1queue":
		if topology.ValidateRingSize(n) != nil {
			return Prediction{}, false
		}
		return QuarcUniform(n, msgLen, lambda), true
	case "spidergon":
		if topology.ValidateRingSize(n) != nil {
			return Prediction{}, false
		}
		return SpidergonUniform(n, msgLen, lambda), true
	case "mesh", "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		if n < 4 || side*side != n {
			return Prediction{}, false
		}
		return MeshUniform(side, side, msgLen, lambda, model == "torus"), true
	}
	return Prediction{}, false
}

// QuarcBroadcastCompletion is the zero-load completion latency of a true
// BRCP broadcast: the deepest branch has diameter n/4 hops and the tail
// follows msgLen-1 flits behind the header.
func QuarcBroadcastCompletion(n, msgLen int) float64 {
	return float64(n/4 + msgLen)
}

// SpidergonBroadcastCompletion is the zero-load completion latency of the
// broadcast-by-unicast chain: ceil((n-1)/2) sequential store-and-forward
// stages, each taking one hop plus msgLen flit cycles plus perHopOverhead
// cycles of ejection/re-injection handling.
func SpidergonBroadcastCompletion(n, msgLen int, perHopOverhead float64) float64 {
	stages := float64((n) / 2) // ceil((n-1)/2)
	return stages * (float64(msgLen) + 1 + perHopOverhead)
}

// BroadcastAdvantage is the predicted Quarc-vs-Spidergon broadcast speedup.
func BroadcastAdvantage(n, msgLen int) float64 {
	return SpidergonBroadcastCompletion(n, msgLen, 1) / QuarcBroadcastCompletion(n, msgLen)
}
