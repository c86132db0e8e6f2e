package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef is one reported metric: its name and unit exactly as
// BENCHMARK.json declares them (a self-test keeps the two in step).
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of quarc sees, printed by every untraced
// run of every workload. Their meaning on each workload is tabulated in
// README.md.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, one block per layer of the stack.
var perLayer = []metricDef{
	{"experiments.points", "count"},
	{"experiments.point_ms_p50", "ms"},
	{"experiments.point_ms_max", "ms"},
	{"experiments.fanout_busy_ratio", "ratio"},
	{"model.build_ms", "ms"},
	{"network.step_ns_per_cycle", "ns"},
	{"network.drain_ns_per_cycle", "ns"},
	{"network.routers_stepped_per_cycle", "count"},
	{"network.active_nodes_mean", "count"},
	{"network.blocked_sleeps", "count"},
	{"network.flit_hops", "count"},
	{"network.flit_hops_per_s", "1/s"},
	{"network.flits_delivered", "count"},
	{"network.pool_workers", "count"},
	{"network.idle_skipped_cycles", "count"},
	{"network.idle_skip_ratio", "ratio"},
	{"sim.events_fired", "count"},
	{"sim.kernel_self_ns_per_event", "ns"},
	{"traffic.messages_sent", "count"},
	{"traffic.source_backlog_max", "flits"},
	{"router.grants", "count"},
	{"router.stalls_no-credit", "count"},
	{"router.stalls_vc-busy", "count"},
	{"router.stalls_arb-lost", "count"},
	{"router.mean_occupancy", "flits"},
	{"service.front_ms_p50", "ms"},
	{"service.decode_key_us", "us"},
	{"service.cache_get_us", "us"},
	{"service.encode_us", "us"},
	{"store.journal_job_ms_p50", "ms"},
	{"store.get_us_p50", "us"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p99", "ms"},
	{"service.exec_ms_p50", "ms"},
	{"store.put_ms_p50", "ms"},
	{"service.queue_depth_max", "count"},
	{"service.coalesced", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.disk_hit_ratio", "ratio"},
	{"service.points_simulated", "count"},
	{"explore.points_expanded", "count"},
	{"explore.point_cache_hit_ratio", "ratio"},
	{"loadgen.sent", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the contract's last output line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts the operations of a run and the reasons any of them failed.
type tally struct {
	attempted, failed int64
	reasons           []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed unless cond holds.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

// buildOutcome keeps exactly the metrics of defs, in their units, and
// fails loudly if the workload did not measure one: a silently missing
// metric would break the contract of the output line.
func buildOutcome(defs []metricDef, vals map[string]float64, t *tally) (outcome, error) {
	out := outcome{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// hostInfo fingerprints the machine and build, so numbers from another
// host or revision are recognisably not comparable.
type hostInfo struct {
	Rev        string `json:"rev"`
	Dirty      bool   `json:"dirty"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func fingerprint(rev string, dirty bool) hostInfo {
	if rev == "" {
		rev = "unknown"
	}
	return hostInfo{Rev: rev, Dirty: dirty, CPU: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// cpuModel reads the kernel's CPU description (Linux only).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// recorder prints the run's informational records, one JSON object per
// line, each carrying the host fingerprint.
type recorder struct {
	w    io.Writer
	host hostInfo
}

func (r *recorder) emit(kind string, fields map[string]any) {
	rec := map[string]any{"record": kind, "host": r.host}
	for k, v := range fields {
		rec[k] = v
	}
	b, err := json.Marshal(rec)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"record":"error","error":%q}`, err.Error()))
	}
	fmt.Fprintln(r.w, string(b))
}

// phase reports one phase's request accounting.
func (r *recorder) phase(workload, name string, sent, ok, failed int) {
	r.emit("phase", map[string]any{"workload": workload, "phase": name,
		"sent": sent, "succeeded": ok, "failed": failed})
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest is a SHA-256 over the %+v rendering of v, which prints every
// field (floats in shortest round-trip form, NaN included): two runs
// simulated identically exactly when their digests match.
func digest(v any) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", v)
	return hex.EncodeToString(h.Sum(nil))
}
