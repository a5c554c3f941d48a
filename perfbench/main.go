// Command perfbench is the repository's end-to-end benchmark. It drives the
// serving daemon (serve), the metro batch path (metro) and the paper
// reproduction (experiments) through their public entry points only, times
// what a user of each one sees, checks every workload's output against the
// full-recompute oracle in a fresh process, and prints one JSON result line
// as the last line of standard output.
//
//	bash perfbench/run.sh --workload daemon_churn --seed 3 --seconds 8 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same workload
// with spans around every call the benchmark makes, a CPU profile folded by
// package, runtime/metrics deltas and counter deltas, prints the per-layer
// metrics, and writes the whole trace to .bench_build/perfbench/. README.md
// defines every metric on every workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options is one invocation's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to the smoke test's size.
	tiny bool
	// outDir receives the trace file and the last untraced result.
	outDir string
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run accumulates one workload invocation's measurements.
type run struct {
	o  options
	tr *tracer // nil unless --trace 1

	attempted, failed int
	// checkErrs lists the output checks that failed.
	checkErrs []string

	e2e   map[string]float64
	layer map[string]float64
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"daemon_churn": runDaemon,
	"city_static":  runCity,
	"paper_repro":  runRepro,
}

func main() {
	if os.Getenv(oracleEnv) != "" {
		os.Exit(oracleMain(os.Stdin, os.Stdout))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := execute(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{outDir: filepath.Join(".bench_build", "perfbench")}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "daemon_churn, city_static or paper_repro")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 8, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds %g must be positive", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// execute runs one workload, checks its output and assembles the result
// line. The environment stamp goes to stampOut as a line of its own.
func execute(o options, stampOut io.Writer) (*result, error) {
	r := &run{o: o, e2e: map[string]float64{}, layer: map[string]float64{}}
	if o.trace {
		r.tr = newTracer()
	}
	st := newStamp(o)
	if line, err := json.Marshal(st); err == nil {
		fmt.Fprintf(stampOut, "stamp %s\n", line)
	}
	if err := workloads[o.workload](r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	r.e2e["success_rate"] = 1 - float64(r.failed)/float64(max(r.attempted, 1))
	r.e2e["peak_rss_mb"] = peakRSSMB()
	for _, e := range r.checkErrs {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", e)
	}

	defs := endToEnd
	vals := r.e2e
	if o.trace {
		defs, vals = perLayer(), r.layer
		if err := r.tr.write(o, st, r); err != nil {
			return nil, err
		}
	} else if err := saveUntraced(o, st, r.e2e); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   len(r.checkErrs) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// check records one output check; a failure counts in failed.
func (r *run) check(name string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.checkErrs = append(r.checkErrs, fmt.Sprintf("%s: %v", name, err))
	}
}

// untracedFile is where an untraced run leaves its end-to-end metrics, so
// the next traced run of the same workload can report its overhead.
func untracedFile(o options) string {
	return filepath.Join(o.outDir, o.workload+"-untraced.json")
}

func saveUntraced(o options, st stamp, e2e map[string]float64) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(untracedRun{st, o.tiny, e2e}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(untracedFile(o), blob, 0o644)
}

// untracedRun is what an untraced run leaves in untracedFile.
type untracedRun struct {
	Stamp   stamp              `json:"stamp"`
	Tiny    bool               `json:"tiny"`
	Metrics map[string]float64 `json:"metrics"`
}

// loadUntraced returns the metrics of the last untraced run of o's
// workload at the same size and window length, if there was one.
func loadUntraced(o options) (map[string]float64, error) {
	blob, err := os.ReadFile(untracedFile(o))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var u untracedRun
	if err := json.Unmarshal(blob, &u); err != nil {
		return nil, fmt.Errorf("read %s: %w", untracedFile(o), err)
	}
	if u.Tiny != o.tiny || u.Stamp.Seconds != o.seconds {
		return nil, nil
	}
	return u.Metrics, nil
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuUtil is CPU time over wall time × GOMAXPROCS.
func cpuUtil(cpu, wall float64) float64 {
	return cpu / (wall * float64(runtime.GOMAXPROCS(0)))
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median of three or more timings of the same set-up.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
