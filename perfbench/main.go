// Command perfbench is the repository benchmark. It drives the closed
// loop (sim.Run) and the campaign runners (fabric.Coordinator over
// campaign.Engine workers) from outside, through their public APIs, on
// three named workloads, checks every output, and prints one JSON
// result line.
//
//	go run . --workload loop-robust --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer attribution instead (see README.md
// and metrics.go for the names).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	// scratch is a directory the campaign workloads may fill; it is
	// removed before the command exits.
	scratch string
	// small shrinks every workload to a smoke-test size (self-tests).
	small bool
}

// run is one workload execution: the operations it attempted, the ones
// that failed or returned a wrong result, and its metrics by name.
type run struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check records a failed check that is not an operation of its own.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(opts options) (*run, error)

var workloads = map[string]workloadFunc{
	"loop-robust":     runLoopRobust,
	"loop-cnn":        runLoopCNN,
	"campaign-fabric": runCampaignFabric,
}

func main() {
	var opts options
	var seconds, trace int
	var dir string
	flag.StringVar(&opts.workload, "workload", "", "workload name: loop-robust, loop-cnn or campaign-fabric")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed; every sim seed and grid spec derives from it")
	flag.IntVar(&seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer attribution instead of the end-to-end metrics")
	flag.StringVar(&dir, "dir", ".bench_build/perfbench", "directory for the run's scratch files")
	flag.Parse()
	opts.budget = time.Duration(seconds) * time.Second
	opts.trace = trace == 1

	fn, ok := workloads[opts.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload one of loop-robust, loop-cnn, campaign-fabric; --seconds >= 1; --trace 0 or 1")
		os.Exit(2)
	}
	scratch, err := makeScratch(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opts.scratch = scratch
	fmt.Println(machineLine())

	r, err := fn(opts)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := r.result(opts.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// makeScratch creates a fresh per-process directory under dir.
func makeScratch(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating scratch root: %w", err)
	}
	return os.MkdirTemp(dir, "run-")
}

// result assembles the output line, requiring exactly the metric names
// the benchmark declares for the mode.
func (r *run) result(trace bool) (result, error) {
	names := endToEnd
	if trace {
		names = perLayer
	}
	out := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range names {
		v, ok := r.metrics[m.name]
		if !ok {
			return out, fmt.Errorf("workload did not report metric %q", m.name)
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(r.metrics) != len(names) {
		return out, fmt.Errorf("workload reported %d metrics, want %d", len(r.metrics), len(names))
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("workload attempted no operation")
	}
	return out, nil
}

// machineLine names the host the figures were measured on.
func machineLine() string {
	return fmt.Sprintf("machine: nproc=%d gomaxprocs=%d cpu=%q go=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
