// Command msbench is the engine's benchmark. One run loads a database,
// drives one workload in a closed loop for a fixed time, checks every
// result the engine returns, and prints one JSON object as the last line
// of its output.
//
// Workloads (see workloads):
//
//	tpch  one client runs the 22 TPC-H queries as ad-hoc SQL text
//	tpcc  two terminals run the TPC-C mix through transaction bees, WAL on
//	wire  two client connections run a point-read and Payment mix against
//	      an in-process server over loopback
//
// With -trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With -trace 1 the run measures an untraced and a traced
// window, reports the per-layer metrics and the tracing overhead, and
// writes its spans to .bench_build/spans/. Any wrong result makes the
// run exit with status 1.
//
// Usage, from the repository root:
//
//	bash msbench/run.sh --workload tpch --seed 1 --seconds 20 --trace 0
//
// --workload all runs the three workloads in turn and prefixes each
// metric with its workload's name.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner. A runner owns its
// system for the whole run and stops everything it started before it
// returns.
var workloads = map[string]func(o options) (*report, error){
	"tpch": runTPCH,
	"tpcc": runTPCC,
	"wire": runWire,
}

var workloadOrder = []string{"tpch", "tpcc", "wire"}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// report is what one workload run produced.
type report struct {
	// env describes the configuration measured: it is printed as the
	// run's environment header.
	env map[string]any
	// attempted counts checked operations; failed counts those that
	// returned an error or a wrong result, plus failed end-of-run
	// consistency checks.
	attempted, failed int64
	// problems describes the first failures, for the log.
	problems []string
	// metrics are the end-to-end metrics (untraced run) or the
	// per-layer metrics (traced run), by name.
	metrics map[string]float64
	// detail holds workload-specific figures printed for people: the
	// headline numbers each workload is known by (tpmC, pass time,
	// per-transaction latencies) and sample counts.
	detail []string
}

// fail records a failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// merge adds a client's counts and problems to r.
func (r *report) merge(c *report) {
	r.attempted += c.attempted
	r.failed += c.failed
	for _, p := range c.problems {
		if len(r.problems) < 10 {
			r.problems = append(r.problems, p)
		}
	}
}

func (r *report) detailf(format string, args ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("msbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "tpch, tpcc, wire or all")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 20, "length of the measured window in seconds")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(os.Stderr, "msbench: unknown workload %q\n", *workload)
			return 2
		}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "msbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}

	res := result{Metrics: map[string]metricValue{}}
	units := unitsFor(*trace == 1)
	for _, n := range names {
		o := options{workload: n, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
		rep, err := workloads[n](o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msbench: %s: %v\n", n, err)
			return 1
		}
		env := baseEnv(o)
		for k, v := range rep.env {
			env[k] = v
		}
		line, err := json.Marshal(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
			return 1
		}
		fmt.Printf("env %s\n", line)
		for _, d := range rep.detail {
			fmt.Printf("%s %s\n", n, d)
		}
		for _, p := range rep.problems {
			fmt.Fprintf(os.Stderr, "msbench: %s: FAILED: %s\n", n, p)
		}
		if err := checkMetricSet(rep.metrics, units); err != nil {
			fmt.Fprintf(os.Stderr, "msbench: %s: %v\n", n, err)
			return 1
		}
		for name, v := range rep.metrics {
			key := name
			if len(names) > 1 {
				key = n + "." + name
			}
			res.Metrics[key] = metricValue{Value: v, Unit: units[name]}
		}
		res.Attempted += rep.attempted
		res.Failed += rep.failed
	}
	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unitsFor returns the unit of every metric a run of that kind reports.
func unitsFor(traced bool) map[string]string {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	return units
}

// checkMetricSet verifies that a workload reported exactly the metrics
// of its kind, each a finite number.
func checkMetricSet(got map[string]float64, units map[string]string) error {
	var missing, extra []string
	for name := range units {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name, v := range got {
		if _, ok := units[name]; !ok {
			extra = append(extra, name)
		} else if v != v || v > 1e300 || v < -1e300 {
			return fmt.Errorf("metric %s is not a finite number: %v", name, v)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metric set mismatch: missing %v, unexpected %v", missing, extra)
	}
	return nil
}

// baseEnv is the environment header every result carries: what was
// built, where it ran, and the seed.
func baseEnv(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      o.workload,
		"commit":        commit,
		"source_sha256": sourceHash(),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"seed":          o.seed,
		"window_s":      o.window.Seconds(),
		"traced":        o.trace,
	}
}

// sourceHash fingerprints the engine's Go sources under the working
// directory, which identifies the code measured when the checkout
// carries no version-control metadata. It returns "" when there are no
// sources to hash.
func sourceHash() string {
	h := sha256.New()
	n := 0
	_ = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\n%d\n", path, len(data))
		h.Write(data)
		n++
		return nil
	})
	if n == 0 {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
