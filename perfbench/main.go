// Command perfbench is the repository's end-to-end benchmark. It trains
// Leashed-SGD on one workload (or on each in turn with --workload all),
// serves predictions through the serve tier, checks every output, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --workload all, each metric name is prefixed by its workload's.
// Run it through run.py from the repository root, which builds it first:
//
//	python3 perfbench/run.py --workload mlp-dense --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"leashedsgd/internal/sgd"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempted and failed operations: training runs and predicts.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) fail(msgs ...string) {
	t.failures = append(t.failures, msgs...)
}

// add accounts for one training run and its predicts.
func (t *tally) add(r runOut) {
	t.attempted++
	if len(r.failures) > 0 {
		t.failed++
		t.fail(r.failures...)
	}
	t.attempted += r.load.answered + r.load.failed + r.probed
	t.failed += r.load.failed + len(r.probeFails)
	t.fail(r.load.failures...)
	t.fail(r.probeFails...)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: mlp-dense, logreg-sparse, serve-live, or all to run each in turn")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measurement time per workload")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's spans (JSON lines); empty: not written")
	flag.Parse()

	var run []spec
	for _, s := range specs {
		if *workload == "all" || s.name == *workload {
			run = append(run, s)
		}
	}
	if len(run) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (all or one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}

	fmt.Println(hostContext(*seed))
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, sp := range run {
		r, err := runWorkload(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spansDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(run) > 1 {
				name = sp.name + "." + name
			}
			out.Metrics[name] = m
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runWorkload generates one workload's inputs, runs it for about d, untraced
// or traced, and prints its runs, metrics and failed checks.
func runWorkload(sp spec, seed uint64, d time.Duration, traced bool, spansDir string) (result, error) {
	serving := "none"
	switch sp.serve {
	case serveAfter:
		serving = fmt.Sprintf("%d closed-loop clients for %v after training", clients, serveWindow)
	case serveLive:
		serving = fmt.Sprintf("%d closed-loop clients while training", clients)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g traced=%v\n", sp.name, seed, d.Seconds(), traced)
	fmt.Printf("config: m=%d B=%d S=%d eta=%g Tp=inf budget=%d eps=%g·L0 input-sets=%d samples=%d serving=%s\n",
		sp.workers, sp.batch, sp.shards, sp.eta, sp.budget, sp.epsFrac, sp.sets, sp.samples, serving)

	sets, err := makeInputs(sp, seed)
	if err != nil {
		return result{}, fmt.Errorf("inputs: %w", err)
	}
	for k, in := range sets {
		fmt.Printf("input set %d: L0=%.6g target=%.6g (θ0 loss computed by the benchmark)\n", k, in.l0, in.target)
	}
	b := &bench{sp: sp, sets: sets}

	var t tally
	var ms map[string]metric
	if traced {
		tr := newTracer()
		ms = b.traced(d, tr, &t)
		printSpanSummary(os.Stdout, tr.spans)
		if spansDir != "" {
			path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
			if err := os.MkdirAll(spansDir, 0o755); err != nil {
				t.fail(fmt.Sprintf("spans: %v", err))
			} else if err := tr.writeFile(path); err != nil {
				t.fail(fmt.Sprintf("spans: %v", err))
			} else {
				fmt.Printf("spans written to %s\n", path)
			}
		}
	} else {
		ms = b.endToEnd(d, &t)
	}

	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.fail(fmt.Sprintf("metric %s is %v", name, m.Value))
			ms[name] = metric{0, m.Unit}
		}
	}
	for i, f := range t.failures {
		if i == 20 {
			fmt.Printf("FAIL ... %d more\n", len(t.failures)-i)
			break
		}
		fmt.Printf("FAIL %s\n", f)
	}
	if t.attempted > 0 {
		fmt.Printf("failed_frac %.6g (%d failed of %d attempted: training runs and predicts)\n",
			float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	}
	return result{len(t.failures) == 0, t.attempted, t.failed, ms}, nil
}

func workloadNames() string {
	var n []string
	for _, s := range specs {
		n = append(n, s.name)
	}
	return strings.Join(n, ", ")
}

// endToEnd runs the workload untraced for about d after one shortened
// warm-up run, cycling through the input sets. Each run metric is the median
// over input sets of the per-set median, except setup_s, which does not
// depend on the inputs and is the median over all runs; predict latencies
// are pooled over all runs. A workload that does not serve reports no
// predict metrics.
func (b *bench) endToEnd(d time.Duration, t *tally) map[string]metric {
	sp := b.sp
	t.add(b.run(b.sets[0], sgd.Leashed, sp.workers, sp.budget/warmupDivisor, false, nil))
	var set []int
	var ups, tte, ute, qps, setup, lat []float64
	start := time.Now()
	for i := 0; i < len(b.sets) || time.Since(start) < d; i++ {
		k := i % len(b.sets)
		r := b.run(b.sets[k], sgd.Leashed, sp.workers, sp.budget, false, nil)
		t.add(r)
		if r.res == nil {
			continue
		}
		set = append(set, k)
		ups = append(ups, r.updatesPerSec())
		tte = append(tte, r.cross.Elapsed.Seconds())
		ute = append(ute, float64(r.cross.Updates))
		qps = append(qps, r.load.qps())
		setup = append(setup, r.setup.Seconds())
		lat = append(lat, r.load.latUS...)
		fmt.Printf("run %d (set %d): updates_per_s=%.1f time_to_eps_s=%.3f updates_to_eps=%d predict_qps=%.1f setup_s=%.5f failed_cas_per_publish=%.3f\n",
			i+1, k, ups[len(ups)-1], tte[len(tte)-1], r.cross.Updates, qps[len(qps)-1], setup[len(setup)-1], r.res.FailedPerPublish())
	}
	ms := map[string]metric{
		"updates_per_s":  {setMedian(ups, set), "1/s"},
		"time_to_eps_s":  {setMedian(tte, set), "s"},
		"updates_to_eps": {setMedian(ute, set), "count"},
		"setup_s":        {median(setup), "s"},
	}
	var beyond int
	if sp.serve != noServe {
		p50, _, _ := percentile(lat, 0.50, 0)
		p99, n, ok := percentile(lat, 0.99, 10)
		if beyond = n; !ok {
			t.fail(fmt.Sprintf("predict p99: only %d of %d samples beyond it, need 10", beyond, len(lat)))
		}
		ms["predict_qps"] = metric{setMedian(qps, set), "1/s"}
		ms["predict_p50_us"] = metric{p50, "us"}
		ms["predict_p99_us"] = metric{p99, "us"}
	}
	fmt.Printf("runs: %d measured over %d input sets (+1 warm-up)\n", len(ups), len(b.sets))
	for _, n := range endToEndOrder {
		m, ok := ms[n]
		if !ok {
			fmt.Printf("metric %-15s n/a (this workload does not serve)\n", n)
			continue
		}
		note := " (median over input sets of the per-set median)"
		switch n {
		case "setup_s":
			note = fmt.Sprintf(" (median of %d runs)", len(setup))
		case "predict_p50_us":
			note = fmt.Sprintf(" (n=%d)", len(lat))
		case "predict_p99_us":
			note = fmt.Sprintf(" (n=%d, %d beyond)", len(lat), beyond)
		}
		fmt.Printf("metric %-15s %.6g %s%s\n", n, m.Value, m.Unit, note)
	}
	return ms
}

var endToEndOrder = []string{"updates_per_s", "time_to_eps_s", "updates_to_eps", "predict_qps", "predict_p50_us", "predict_p99_us", "setup_s"}

// hostContext describes the machine a result was measured on.
func hostContext(seed uint64) string {
	model, flags := "unknown", ""
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(l, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				if model == "unknown" {
					model = strings.TrimSpace(v)
				}
			case "flags":
				if flags == "" {
					flags = " " + v + " "
				}
			}
		}
	}
	has := func(f string) string {
		if flags == "" {
			return "unknown"
		}
		return fmt.Sprint(strings.Contains(flags, " "+f+" "))
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d cpu=%q avx2=%s fma=%s go=%s goos=%s goarch=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, has("avx2"), has("fma"),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, seed)
}
