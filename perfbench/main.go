// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three seeded, single-process, closed-loop workloads — execute,
// plan and serve (see README.md for why each exists) — checks every
// output, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	perfbench --workload execute --seed 1 --seconds 22 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1
// a separate traced run reports per-layer metrics instead, timed around
// calls into each layer's public functions from this package's own
// files. Lines before the JSON object are a human-readable report: the
// pinned inputs, the seed, the tail percentile and its sample count, and
// every measured phase. A correctness mismatch still prints the object,
// with "correct": false, and exits 1; a usage or set-up error exits 2
// without one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchProcs pins GOMAXPROCS: the benchmark runs on at most two
// threads, the size of the machine the numbers in README.md come from.
const benchProcs = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 3

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's flags.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// measured is what a workload's untraced run hands back for the
// end-to-end metrics.
type measured struct {
	setups    []float64 // seconds per set-up repetition
	lat       []float64 // per-op latency, warm-up and verification excluded
	attempted int
	failed    int
	window    float64 // seconds the measured ops took, verification excluded
	alloc     uint64  // heap bytes allocated by the measured ops
	peakHeap  uint64  // highest sampled in-use heap bytes
}

// traced is what a workload's traced run hands back.
type traced struct {
	attempted int
	failed    int
	metrics   map[string]metric
}

// workload is one of the benchmark's traffic mixes.
type workload struct {
	run    func(cfg config, rep *report) (*measured, error)
	traced func(cfg config, rep *report) (*traced, error)
}

var workloads = map[string]workload{
	"execute": {run: runExecute, traced: tracedExecute},
	"plan":    {run: runPlan, traced: tracedPlan},
	"serve":   {run: runServe, traced: tracedServe},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: execute, plan or serve")
	seed := fs.Uint64("seed", 1, "workload seed: drives the integrals and the op order")
	seconds := fs.Float64("seconds", 22, "how long the measured loop runs")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload execute|plan|serve --seed N --seconds S --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	rep := &report{}
	rep.add("workload", cfg.workload)
	rep.add("seed", cfg.seed)
	rep.add("seconds", cfg.seconds)
	rep.add("trace", *traceFlag)
	rep.add("gomaxprocs", runtime.GOMAXPROCS(0))
	rep.add("go", runtime.Version())

	var res result
	if cfg.trace {
		t, err := w.traced(cfg, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		res = result{Attempted: t.attempted, Failed: t.failed, Metrics: t.metrics}
	} else {
		m, err := w.run(cfg, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		res = result{Attempted: m.attempted, Failed: m.failed, Metrics: endToEnd(m, rep)}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rep.add("failed_frac", failedFrac(res.Failed, res.Attempted))
	rep.print(os.Stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd derives the end-to-end metrics from an untraced run. The
// failed share is not among them: it is zero on a healthy run, and the
// result line already carries it as failed over attempted.
func endToEnd(m *measured, rep *report) map[string]metric {
	ok := m.attempted - m.failed
	tl := tailLatency(m.lat)
	rep.add("ops", fmt.Sprintf("%d attempted, %d failed, %d latency samples", m.attempted, m.failed, len(m.lat)))
	rep.add("latency_tail", fmt.Sprintf("p%.1f of %d samples, %d beyond: %.4f s", tl.Percentile, tl.Samples, tl.Beyond, tl.Value))
	rep.add("setup_reps_s", m.setups)
	perOp := 0.0
	if m.attempted > 0 {
		perOp = float64(m.alloc) / float64(m.attempted) / 1e6
	}
	return map[string]metric{
		"setup_s":              {median(m.setups), "s"},
		"latency_p50_s":        {median(m.lat), "s"},
		"latency_tail_s":       {tl.Value, "s"},
		"throughput_ops_per_s": {float64(ok) / m.window, "1/s"},
		"alloc_mb_per_op":      {perOp, "MB"},
		"peak_heap_mb":         {float64(m.peakHeap) / 1e6, "MB"},
	}
}

// report collects the human-readable lines printed before the result.
type report struct {
	lines []string
}

func (r *report) add(key string, v any) {
	r.lines = append(r.lines, fmt.Sprintf("# %s: %v", key, v))
}

// addMetrics lists metrics in name order, so traced runs show every
// per-layer value with its unit above the result line.
func (r *report) addMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.add(k, fmt.Sprintf("%g %s", ms[k].Value, ms[k].Unit))
	}
}

func (r *report) print(f *os.File) {
	fmt.Fprintln(f, strings.Join(r.lines, "\n"))
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
