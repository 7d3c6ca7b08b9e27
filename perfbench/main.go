// Command perfbench is the repository's end-to-end benchmark. Each
// workload trains real MLPs through hpo.CVEvaluator, either directly
// through core.RunCtx (the paper's Table IV cell) or as jobs sent over
// HTTP to an in-process job service, optionally behind the cluster
// coordinator. It checks the outputs, and prints as its last line one
// JSON object with the metrics BENCHMARK.json declares: the end-to-end
// ones by default, the per-layer ones with --trace 1.
//
// A traced run measures twice in one process: half its time untraced,
// half with spans recorded around the calls into each layer. Their
// difference is the tracing overhead, and their scores must agree.
//
// Usage (from the repository root, which holds BENCHMARK.json):
//
//	bash perfbench/run.sh --workload paper-sha --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// pass is one measured stretch of a workload.
type pass struct {
	seed uint64
	dur  time.Duration
	rec  *recorder // nil when untraced
	dir  string    // scratch directory inside the checkout
}

// passResult is what a workload reports for one pass.
type passResult struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	detail            map[string]any
	// scores maps a search or job key to its result score, so a traced
	// pass can be compared with the untraced one.
	scores map[string]float64
}

func newPassResult() *passResult {
	return &passResult{
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		detail: map[string]any{},
		scores: map[string]float64{},
	}
}

// problem records a failed output check.
func (r *passResult) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(pass) (*passResult, error){
	"paper-sha":    runPaperSHA,
	"svc-cold":     runSvcCold,
	"svc-warm":     runSvcWarm,
	"cluster-warm": runClusterWarm,
}

// metricSpec is one entry of BENCHMARK.json's metric lists.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measured seconds")
		traced  = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		root    = flag.String("root", ".", "checkout root holding BENCHMARK.json")
		out     = flag.String("out", ".bench_build", "directory for spans and scratch files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *root, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, root, out string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	bench, err := loadBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	dur := time.Duration(seconds) * time.Second
	var final *passResult
	metrics := map[string]float64{}
	catalogue := bench.EndToEnd
	detail := map[string]any{
		"workload":  name,
		"seed":      seed,
		"seconds":   seconds,
		"traced":    traced,
		"evaluator": "real CVEvaluator (MLP fits through hpo.CVEvaluator)",
		"host":      hostInfo(),
	}
	if !traced {
		final, err = wl(pass{seed: seed, dur: dur, dir: filepath.Join(scratch, "untraced")})
		if err != nil {
			return err
		}
		for k, v := range final.e2e {
			metrics[k] = v
		}
		detail["peak_rss_mb"] = peakRSSMiB()
	} else {
		catalogue = bench.PerLayer
		plain, err := wl(pass{seed: seed, dur: dur / 2, dir: filepath.Join(scratch, "untraced")})
		if err != nil {
			return err
		}
		rec := &recorder{}
		final, err = wl(pass{seed: seed, dur: dur / 2, rec: rec, dir: filepath.Join(scratch, "traced")})
		if err != nil {
			return err
		}
		final.attempted += plain.attempted
		final.failed += plain.failed
		final.problems = append(plain.problems, final.problems...)
		compareScores(plain, final)
		for k, v := range final.layer {
			metrics[k] = v
		}
		metrics["trace_overhead_share"] = final.e2e["job_p50_ms"]/plain.e2e["job_p50_ms"] - 1
		detail["untraced_end_to_end"] = plain.e2e
		detail["traced_end_to_end"] = final.e2e
		spansPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := rec.write(spansPath); err != nil {
			return err
		}
		detail["spans"] = spansPath
		detail["span_count"] = len(rec.all())
	}
	var absent []string
	res := result{Metrics: map[string]metricValue{}}
	for _, m := range catalogue {
		v, ok := metrics[m.Name]
		if !ok {
			if !traced {
				return fmt.Errorf("%s did not measure end-to-end metric %s", name, m.Name)
			}
			// A layer this workload's path does not cross.
			absent = append(absent, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			final.problem("metric %s is %v", m.Name, v)
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(metrics, m.Name)
	}
	for k := range metrics {
		return fmt.Errorf("%s measured %s, which BENCHMARK.json does not declare", name, k)
	}
	if len(absent) > 0 {
		detail["layers_not_on_path"] = absent
	}
	for k, v := range final.detail {
		detail[k] = v
	}
	detail["problems"] = final.problems
	res.Attempted = final.attempted
	res.Failed = final.failed
	res.Correct = len(final.problems) == 0 && final.attempted > 0
	if err := printJSON(detail); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("output checks failed: " + strings.Join(final.problems, "; "))
	}
	return nil
}

// compareScores checks the determinism invariant: every search or job
// the traced pass shares with the untraced one has the same score, bit
// for bit.
func compareScores(plain, traced *passResult) {
	shared := 0
	for k, v := range traced.scores {
		w, ok := plain.scores[k]
		if !ok {
			continue
		}
		shared++
		if math.Float64bits(v) != math.Float64bits(w) {
			traced.problem("%s scored %v traced but %v untraced", k, v, w)
		}
	}
	traced.detail["scores_compared"] = shared
	if shared == 0 {
		traced.problem("the traced and untraced passes share no search to compare")
	}
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func printJSON(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", raw)
	return err
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
