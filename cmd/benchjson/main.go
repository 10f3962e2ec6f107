// Command benchjson turns `go test -bench` output into a JSON artefact
// and gates perf regressions against a checked-in baseline: every metric
// line (ns/op, B/op, allocs/op and custom ReportMetric units like
// origin-fills/op) is parsed per benchmark, and with -baseline the tool
// exits non-zero when ns/op or allocs/op regressed beyond -max-regress
// percent — a zero-alloc baseline (the breaker closed path) admits no
// allocations at all.
//
// Usage:
//
//	go test -run NONE -bench . ./... | benchjson -o BENCH.json
//	benchjson -o BENCH.json -baseline BENCH_PR10.json -max-regress 20 bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result: the metric map holds every unit the
// bench reported (ns/op, B/op, allocs/op, MB/s, custom ReportMetric
// units).
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the JSON artefact: benchmarks keyed by normalized name.
type Report struct {
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// cpuSuffix is the -GOMAXPROCS tail Go appends to benchmark names; it is
// stripped so baselines survive runners with different core counts.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func normalizeName(name string) string {
	return cpuSuffix.ReplaceAllString(name, "")
}

// parseBench extracts benchmark result lines from `go test -bench`
// output. Lines look like:
//
//	BenchmarkFoo/case=1-8   1234   95.2 ns/op   0 B/op   0 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs. Duplicate
// normalized names (repeat runs via -count, or -cpu sweeps) keep the
// fastest occurrence — benchmarking noise is one-sided, so the minimum
// ns/op is the stable estimate to baseline and to gate.
func parseBench(r io.Reader) (Report, error) {
	rep := Report{Benchmarks: map[string]Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       normalizeName(fields[0]),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if len(b.Metrics) == 0 {
			continue
		}
		if prev, ok := rep.Benchmarks[b.Name]; ok && prev.Metrics["ns/op"] <= b.Metrics["ns/op"] {
			continue
		}
		rep.Benchmarks[b.Name] = b
	}
	return rep, sc.Err()
}

// compare gates cur against base: ns/op and allocs/op may grow at most
// maxRegressPct percent; a zero-alloc baseline admits no allocations at
// all; a benchmark present in the baseline must still exist. Returns the
// list of violations (empty means the gate passes).
func compare(base, cur Report, maxRegressPct float64) []string {
	var violations []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: present in baseline but missing from this run", name))
			continue
		}
		for _, unit := range []string{"ns/op", "allocs/op"} {
			bv, inBase := b.Metrics[unit]
			cv, inCur := c.Metrics[unit]
			if !inBase || !inCur {
				continue
			}
			if bv == 0 {
				if cv > 0 {
					violations = append(violations, fmt.Sprintf("%s: %s went %v -> %v (zero baseline admits none)", name, unit, bv, cv))
				}
				continue
			}
			if growth := (cv - bv) / bv * 100; growth > maxRegressPct {
				violations = append(violations,
					fmt.Sprintf("%s: %s regressed %.1f%% (%v -> %v, limit %.0f%%)", name, unit, growth, bv, cv, maxRegressPct))
			}
		}
	}
	return violations
}

func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		// A gate pointed at a baseline that was never checked in fails
		// with an actionable message, not a bare ENOENT: the fix is to
		// regenerate the artefact and commit it, or repoint the gate.
		return Report{}, fmt.Errorf(
			"benchjson: baseline %s does not exist — generate it from a trusted run (benchjson -o %s bench.txt) and check it in, or point -baseline at a committed artefact",
			path, path)
	}
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func main() {
	out := flag.String("o", "", "write the parsed benchmarks as JSON to this file (default stdout)")
	baseline := flag.String("baseline", "", "compare against this baseline JSON and fail on regressions")
	maxRegress := flag.Float64("max-regress", 20, "maximum allowed ns/op and allocs/op growth, percent")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	rep, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input")
		os.Exit(2)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		os.Stdout.Write(data)
	}

	if *baseline == "" {
		return
	}
	base, err := readReport(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if violations := compare(base, rep, *maxRegress); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "REGRESSION:", v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within %.0f%% of baseline %s\n",
		len(base.Benchmarks), *maxRegress, *baseline)
}
