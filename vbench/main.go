// Command vbench is the repository's benchmark. It runs one workload from a
// single process, checks the program's outputs, and prints one JSON object
// as its last line of output: whether the checks passed, how many
// operations it attempted and how many failed, and every metric by name
// with its unit. Untraced runs (--trace 0) print the end-to-end metrics;
// traced runs (--trace 1) print the per-layer metrics and write their spans
// to vbench/out/.
//
//	bash vbench/run.sh --workload svc-isolation --seed 1 --seconds 20 --trace 0
//
// With --steady N it instead runs the workload N times, one process per
// seed, and prints each metric's median, quartiles and spread.
//
// Workloads (README.md gives the make-up of each and the layers it
// exercises):
//
//	sim-fig7       exp.Fig7 on the 32-core unit-scale machine (the simulator)
//	svc-isolation  a friendly and a thrashing tenant on one vantaged node
//	cluster-proxy  the same tenants through vantaged proxy to three nodes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type options struct {
	seed  uint64
	dur   time.Duration
	trace bool
	out   string
}

func (o options) tracePath(workload string) string {
	return filepath.Join(o.out, "trace-"+workload+".jsonl")
}

// endToEnd and perLayer list every metric the benchmark prints, with its
// unit, in the order of BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"vantage_gmean", "ratio"},
	{"ops_per_s", "ops/s"},
	{"batch_p50_us", "us"},
	{"hit_rate_friendly", "fraction"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"workload.record_s", "s"},
	{"workload.refs", "count"},
	{"sim.l1_filter_s", "s"},
	{"sim.l2_accesses", "count"},
	{"sim.replay_s.lru", "s"},
	{"sim.replay_s.vantage", "s"},
	{"sim.replay_s.waypart", "s"},
	{"sim.replay_s.pipp", "s"},
	{"core.hit_ns", "ns"},
	{"core.replace_ns", "ns"},
	{"core.demotions_per_miss", "ratio"},
	{"core.forced_evict_frac", "fraction"},
	{"ucp.repartitions", "count"},
	{"ucp.lookahead_us", "us"},
	{"service.get_hit_ns", "ns"},
	{"service.get_miss_ns", "ns"},
	{"service.put_fill_ns", "ns"},
	{"service.repartition_us", "us"},
	{"service.forced_evict_frac", "fraction"},
	{"service.friendly_occupancy_lines", "lines"},
	{"wire.self_us_per_batch", "us"},
	{"wire.batch_p90_us", "us"},
	{"wire.batch_p99_us", "us"},
	{"cluster.ring_owner_ns", "ns"},
	{"cluster.direct_bmget_p50_us", "us"},
	{"cluster.proxy_self_us", "us"},
	{"cluster.frames_per_batch", "frames/batch"},
	{"cluster.pool_conns", "count"},
	{"cluster.tenant_add_ms", "ms"},
	{"trace.run_s", "s"},
}

// report is what a workload hands back: its operation count, the metrics
// it measured, and every check that failed.
type report struct {
	attempted int64
	e2eM      map[string]float64
	layerM    map[string]float64
	failures  []string
}

func newReport() *report {
	return &report{e2eM: map[string]float64{}, layerM: map[string]float64{}}
}

func (r *report) e2e(name string, v float64)   { r.e2eM[name] = v }
func (r *report) layer(name string, v float64) { r.layerM[name] = v }

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func main() {
	workload := flag.String("workload", "", "sim-fig7 | svc-isolation | cluster-proxy")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics and writes spans")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds seed..seed+N-1) and print each metric's spread")
	out := flag.String("out", filepath.Join("vbench", "out"), "directory for span files")
	flag.Parse()

	if *steady > 0 {
		must(steadiness(*workload, *seed, *steady, *seconds, *traceFlag), "steadiness")
		return
	}
	o := options{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, out: *out}
	var rep *report
	var err error
	switch *workload {
	case "sim-fig7":
		rep, err = runSimFig7(o)
	case "svc-isolation", "cluster-proxy":
		// One P for the service workloads (README.md). The client loops,
		// servers and proxy then hand off through the Go scheduler rather
		// than by cross-thread wake-ups, at the same throughput as two Ps
		// and without the 4 ms p99. sim-fig7 keeps every P, so exp.Fig7
		// runs its mixes in parallel as it does everywhere else.
		runtime.GOMAXPROCS(1)
		rep, err = runService(o, *workload == "cluster-proxy")
	default:
		fmt.Fprintf(os.Stderr, "vbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	must(err, *workload)
	rep.e2e("peak_rss_mb", peakRSSMB())

	res := result{Correct: len(rep.failures) == 0, Attempted: rep.attempted, Metrics: map[string]metric{}}
	if o.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{rep.layerM[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := rep.e2eM[m.name]
			if !ok {
				must(fmt.Errorf("metric %s was not measured", m.name), *workload)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "vbench: check failed:", f)
	}
	line, err := json.Marshal(res)
	must(err, "encode result")
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
