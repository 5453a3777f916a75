// Command fitsbench is the end-to-end benchmark of the fits pipeline and the
// fitsd service. It runs one workload per invocation on inputs generated
// from a seed by the synthetic firmware generator, checks every output
// against the generator's ground truth, and prints a human-readable report
// followed, as its last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// tracing; with -trace 1 they are the per-layer metrics, measured from
// spans the benchmark records around its calls into each layer. See
// README.md for the workloads and the metric definitions.
//
// Usage:
//
//	fitsbench -workload corpus-cold|engine-sweep|fitsd-mix -seed 1 -seconds 25 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir, relative to the directory the benchmark runs in (the root of
// the repository), holds the built binary and everything a run leaves or
// removes: trace files and fitsd's temporary data directories.
const buildDir = ".bench_build"

// workers bounds analysis parallelism and fitsd's worker count: the
// benchmark host has two cores, and no load is offered beyond them.
var workers = min(2, runtime.NumCPU())

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Trace    bool
	// Smoke shrinks every workload to its smallest whole form (one round,
	// a short schedule) for the benchmark's own tests.
	Smoke bool
	// Out receives the human-readable report.
	Out io.Writer
	// TraceDir, when non-empty, receives the recorded spans of a traced run.
	TraceDir string
	// Rate overrides fitsd-mix's arrival rate in jobs per second (0 keeps
	// mixRate); a rate far above the service's, such as -rate 400 with
	// -seconds 1, offers the jobs at once and so measures its capacity.
	Rate float64
	// TmpRoot holds the temporary directories a run creates and removes.
	TmpRoot string
}

// workloadFunc runs one workload and returns its report.
type workloadFunc func(ctx context.Context, cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"corpus-cold":  runCorpusCold,
	"engine-sweep": runEngineSweep,
	"fitsd-mix":    runFitsdMix,
}

// report is what a workload hands back: op counts, the check verdict, and
// the metrics by name.
type report struct {
	Attempted int
	Failed    int
	// Problems lists every failed check; empty means correct.
	Problems []string
	Metrics  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// failf records a failed check.
func (r *report) failf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func main() {
	var (
		workload = flag.String("workload", "corpus-cold", "workload to run: corpus-cold, engine-sweep or fitsd-mix")
		seed     = flag.Int64("seed", 1, "workload seed; every input is derived from it")
		seconds  = flag.Int("seconds", 25, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		rate     = flag.Float64("rate", 0, "fitsd-mix arrival rate in jobs/s (0 = the benchmark's fixed rate)")
	)
	flag.Parse()
	// SIGINT and SIGTERM cancel the run's context; every workload then
	// takes its ordinary teardown path and the command exits non-zero
	// without printing a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, *workload, *seed, *seconds, *trace, *rate)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, workload string, seed int64, seconds, trace int, rate float64) int {
	if _, ok := workloads[workload]; !ok {
		fmt.Fprintf(os.Stderr, "fitsbench: unknown workload %q\n", workload)
		return 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "fitsbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{
		Workload: workload, Seed: seed, Duration: time.Duration(seconds) * time.Second,
		Trace: trace == 1, Rate: rate, Out: os.Stdout, TraceDir: filepath.Join(buildDir, "traces"), TmpRoot: buildDir,
	}
	return runOne(ctx, cfg)
}

// runOne runs one workload and prints its report and result line. It
// returns the process exit code: 0 only when the run completed and every
// check passed.
func runOne(ctx context.Context, cfg config) int {
	total0, steal0, statErr := cpuTicks()
	rep, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fitsbench: %s: %v\n", cfg.Workload, err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	if total1, steal1, err := cpuTicks(); statErr == nil && err == nil && total1 > total0 {
		fmt.Fprintf(cfg.Out, "host: %.1f%% of CPU time stolen by the hypervisor during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(cfg.Out, "CHECK FAILED: %s\n", p)
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fitsbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(cfg.Out, line)
	if len(rep.Problems) > 0 || rep.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs one workload with the metrics every workload shares.
func runWorkload(ctx context.Context, cfg config) (*report, error) {
	rep, err := workloads[cfg.Workload](ctx, cfg)
	if err != nil {
		return nil, err
	}
	// A signal that arrived after the last op still aborts the run: a
	// canceled run prints no result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !cfg.Trace || cfg.Smoke {
		return rep, nil
	}
	// Each per-layer metric is measured on the workload whose ops drive
	// that layer. A traced run therefore also runs the other workloads in
	// their short traced form and takes their layers' metrics from them;
	// the runtime metrics stay those of the named workload. Every layer
	// metric is a mean, a ratio or a count per op, job or target, so its
	// value does not grow with the length of the run it came from.
	for _, name := range workloadNames() {
		if name == cfg.Workload {
			continue
		}
		short := cfg
		short.Workload, short.Smoke, short.Duration = name, true, 0
		fmt.Fprintf(cfg.Out, "short traced %s, for the layers it drives (their metrics below come from this short run):\n", name)
		other, err := workloads[name](ctx, short)
		if err != nil {
			return nil, err
		}
		for k, v := range other.Metrics {
			if !strings.HasPrefix(k, "runtime.") {
				rep.Metrics[k] = v
			}
		}
		rep.Attempted += other.Attempted
		rep.Failed += other.Failed
		rep.Problems = append(rep.Problems, other.Problems...)
	}
	return rep, ctx.Err()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resultLine renders the final JSON object.
func resultLine(rep *report) (string, error) {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.Problems) == 0, rep.Attempted, rep.Failed, rep.Metrics})
	return string(b), err
}
