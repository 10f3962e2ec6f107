// Command bench is the repo's end-to-end benchmark: it boots the real
// testbed through public entry points, drives one of four workloads from
// two generator goroutines, checks the outputs, and prints every metric by
// name with its unit. See README.md.
//
//	bash bench/run.sh --workload edge-hot --seed 1 --seconds 20 --trace 0
//
// prints the end-to-end metrics of one untraced run, and as its last line
// the JSON object the driver reads; --trace 1 prints the per-layer metrics
// of a traced run instead. Without --workload every workload runs in a
// fresh child process; --aa runs that set twice and compares.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// maxFailRatio is the share of failed, refused, corrupt, gapped or late ops
// above which a run is void.
const maxFailRatio = 0.002

// processStart is as close to process start as Go code gets; set-up time
// counts from here.
var processStart = time.Now()

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, each in a fresh child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the population, the service and the request mix")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&o.aa, "aa", false, "run the full set twice on this build and compare the two against the metrics' bounds")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory the traced run writes its spans to")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case o.aa:
		err = runAA(o, os.Stdout)
	case o.workload == "":
		_, err = runSet(o, os.Stdout)
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is one run of one workload in this process.
func runOne(o options, stdout io.Writer) error {
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := execute(o, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// setupBudget is how long a run keeps repeating its set-up to report the
// median: a set-up that takes milliseconds is repeated dozens of times, one
// paced by real-time segment production (a dozen seconds, and steady for
// that reason) runs once.
const (
	setupBudget     = time.Second
	maxSetupRepeats = 50
)

// execute sets the workload up, measures it, verifies it and tears it down.
func execute(o options, stdout io.Writer) (*result, error) {
	var w workload
	var setups []float64
	for from := processStart; ; from = time.Now() {
		var err error
		if w, err = newWorkload(o.workload, o.seed); err != nil {
			return nil, err
		}
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(from).Seconds())
		if time.Since(processStart) > setupBudget || len(setups) == maxSetupRepeats {
			break
		}
		w.close()
	}
	// close is idempotent: the traced path also closes early, before its
	// layer pass.
	defer w.close()
	e := w.base()
	for i := range e.logs {
		e.logs[i].lat = make([]latSample, 0, 1<<19)
	}

	window := time.Duration(o.seconds) * time.Second
	res := &result{Metrics: map[string]metricValue{}}
	var values map[string]float64
	var specs []metricSpec
	var samples int
	if o.trace == 0 {
		win := measure(w, window, nil)
		values, samples = endToEndMetrics(e, win, median(setups))
		specs = endToEnd
		// The per-second series, so slow episodes of the box are visible.
		fmt.Fprintf(stdout, "one-second slices, ops / cpu_us_per_op / op_p50_us:")
		for i := 1; i < len(win.samples); i++ {
			a, b := win.samples[i-1], win.samples[i]
			ops := b.ops - a.ops
			cpu := float64(b.cpuSince(a)) / float64(time.Microsecond) / float64(max(ops, 1))
			p50 := 1e3 * median(latencies(e, a.at.Sub(processStart), b.at.Sub(processStart)))
			fmt.Fprintf(stdout, " %d/%.0f/%.0f", ops, cpu, p50)
		}
		fmt.Fprintln(stdout)
	} else {
		// Traced phase first, then an untraced one on the same set-up: the
		// ratio of the two is the tracing overhead.
		tr := newTracer()
		traced := measure(w, window*2/3, tr)
		plain := measure(w, window-window*2/3, nil)
		values = map[string]float64{}
		counterMetrics(values, e, traced, len(tr.durations(spSegmentGet)))
		spanMetrics(values, tr)
		values["trace.overhead_ratio"] = overheadRatio(e, traced, plain)
		values["service.access_video_direct_p50_us"] = directAccessVideoP50(e)
		path, err := tr.writeJSONL(o.outDir, o.workload)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans: %d kept, %d past the cap, written to %s\n",
			len(tr.spans[0])+len(tr.spans[1]), tr.dropped[0]+tr.dropped[1], path)
		specs = perLayer
	}

	checks := w.verify()
	if v := originFillsPerSegment(e); v > 1 {
		checks = append(checks, fmt.Errorf("hls.origin_fills_per_segment = %.3f > 1", v))
	}
	for i := range e.logs {
		l := &e.logs[i]
		res.Attempted += l.attempted
		res.Failed += l.failed
		for _, err := range l.errs {
			fmt.Fprintf(stdout, "failed op (worker %d): %v\n", i, err)
		}
	}
	if res.Attempted == 0 {
		checks = append(checks, errors.New("no op was attempted"))
		res.Attempted = 1
	}
	if o.trace == 1 {
		w.layerMetrics(values)
		values["gen.op_p99_ms"] = percentile(latencies(e, 0, math.MaxInt64), 0.99)
		values["gen.fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
		// The layer pass gets the machine to itself.
		w.close()
		if err := layerPass(values, o.seed); err != nil {
			checks = append(checks, err)
		}
	}
	// The workloads are chosen so that no op fails; a rare late delivery on
	// a shared box is reported in "failed", more than maxFailRatio voids
	// the run.
	if float64(res.Failed) > maxFailRatio*float64(res.Attempted) {
		checks = append(checks, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted))
	}
	for _, err := range checks {
		fmt.Fprintf(stdout, "check failed: %v\n", err)
	}
	res.Correct = len(checks) == 0

	for _, spec := range specs {
		v := values[spec.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[spec.name] = metricValue{Value: v, Unit: spec.unit}
		fmt.Fprintf(stdout, "%-36s %16.4f %s\n", spec.name, v, spec.unit)
	}
	if o.trace == 0 {
		fmt.Fprintf(stdout, "samples: %d op latencies, %d set-ups; attempted=%d failed=%d\n",
			samples, len(setups), res.Attempted, res.Failed)
	}
	return res, nil
}

// overheadRatio compares the traced and untraced phases: throughput for a
// closed loop (untraced ÷ traced), CPU per second for a paced one (traced ÷
// untraced). Above 1 means tracing cost something.
func overheadRatio(e *env, traced, plain *window) float64 {
	if e.paced {
		return (traced.cpu().Seconds() / traced.seconds()) / (plain.cpu().Seconds() / plain.seconds())
	}
	return (float64(plain.ops()) / plain.seconds()) / (float64(traced.ops()) / traced.seconds())
}

// runSet runs every workload in a fresh child process, so set-up time and
// peak RSS are per workload, and returns each workload's metrics.
func runSet(o options, stdout io.Writer) (map[string]map[string]metricValue, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]metricValue{}
	for _, spec := range workloadSpecs {
		cmd := exec.Command(exe,
			"--workload", spec.name,
			"--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds),
			"--trace", strconv.Itoa(o.trace),
			"--out", o.outDir)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", spec.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("workload %s: last line is not a result: %w", spec.name, err)
		}
		out[spec.name] = res.Metrics
		fmt.Fprintln(stdout)
	}
	return out, nil
}

// runAA runs the untraced set twice back to back on this build and fails
// if any end-to-end metric differs between the two by more than its bound
// (bench_test.go keeps the bounds here equal to those in BENCHMARK.json).
func runAA(o options, stdout io.Writer) error {
	o.trace = 0
	a, err := runSet(o, stdout)
	if err != nil {
		return err
	}
	b, err := runSet(o, stdout)
	if err != nil {
		return err
	}
	var over int
	fmt.Fprintf(stdout, "%-10s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, spec := range workloadSpecs {
		for _, m := range endToEnd {
			x, y := a[spec.name][m.name].Value, b[spec.name][m.name].Value
			worse := (y - x) / x
			if m.better == "higher" {
				worse = -worse
			}
			flag := ""
			if math.Abs(worse) > m.bound {
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(stdout, "%-10s %-16s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", spec.name, m.name, x, y, 100*worse, 100*m.bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d metrics differ by more than their bound", over)
	}
	return nil
}
