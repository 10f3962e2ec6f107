package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"periscope/internal/leakcheck"
)

// TestMain holds the benchmark to the repo's goroutine-lifecycle contract:
// after every workload has closed, nothing it started may still be running.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}

type schemaMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type schema struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []schemaMetric `json:"end_to_end"`
	PerLayer []schemaMetric `json:"per_layer"`
}

// TestSchemaMatchesBenchmarkJSON fails when BENCHMARK.json and the tables
// the program prints from name different workloads or metrics.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s schema
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(s.Workloads) > 8 || len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Errorf("too many entries: %d workloads, %d end-to-end, %d per-layer", len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the permitted form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(s.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloadSpecs))
	}
	for i, w := range s.Workloads {
		checkName(w.Name)
		if w.Name != workloadSpecs[i].name || w.Why != workloadSpecs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloadSpecs[i].name, workloadSpecs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}

	compare := func(kind string, got []schemaMetric, want []metricSpec, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			checkName(g.Name)
			if !unit.MatchString(g.Unit) {
				t.Errorf("%s %s: unit %q is not of the permitted form", kind, g.Name, g.Unit)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if g.Better != "higher" && g.Better != "lower" {
				t.Errorf("%s %s: better = %q", kind, g.Name, g.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, the program has %v", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	compare("end_to_end", s.EndToEnd, endToEnd, true)
	compare("per_layer", s.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s [s, lower]")
	}
}

// TestSmoke runs every workload for a two-second window and checks that the
// run is correct and reports every metric of its kind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full testbed four times")
	}
	runs := []struct {
		workload string
		trace    int
	}{
		{"edge-hot", 0}, {"live-tail", 0}, {"api-mix", 0}, {"chat-room", 0},
		// One traced run covers spans, counter deltas and the layer pass.
		{"chat-room", 1},
	}
	for _, r := range runs {
		var out bytes.Buffer
		res, err := execute(options{workload: r.workload, seed: 1, seconds: 2, trace: r.trace, outDir: t.TempDir()}, &out)
		if err != nil {
			t.Fatalf("%s trace=%d: %v\n%s", r.workload, r.trace, err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", r.workload, r.trace, res.Correct, res.Attempted, res.Failed, out.String())
		}
		specs := endToEnd
		if r.trace == 1 {
			specs = perLayer
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("%s trace=%d: %d metrics reported, want %d", r.workload, r.trace, len(res.Metrics), len(specs))
		}
		for _, spec := range specs {
			m, ok := res.Metrics[spec.name]
			if !ok || m.Unit != spec.unit {
				t.Errorf("%s trace=%d: metric %s [%s] missing or in unit %q", r.workload, r.trace, spec.name, spec.unit, m.Unit)
			}
			// Two seconds is shorter than a segment, so live-tail has
			// delivered only catch-up media and has no live latency yet.
			latency := spec.name == "op_p50_ms" || spec.name == "op_p90_ms"
			if r.trace == 0 && m.Value <= 0 && !(r.workload == "live-tail" && latency) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.workload, spec.name, m.Value)
			}
		}
	}
}
