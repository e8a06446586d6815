// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks the outputs, and prints every metric by name
// and unit; its last line is one JSON object with the keys correct,
// attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload e15-internet --seed 42 --seconds 30 --trace 0
//
// Workloads (README.md says why each was chosen):
//
//	e15-internet    ddosim's e15 sweep on the hybrid fluid/packet substrate
//	reflector-loop  an all-packet reflector attack under the closed defense loop
//	ctl-sessions    user sessions against the multi-process TCSP/NMS deployment
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from spans the benchmark records
// around each call it makes into a layer and from the layers' public
// counters, plus the tracing overhead against untraced repetitions of the
// same run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dtc/internal/deploy"
)

// runCtx is one benchmark invocation.
type runCtx struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// toy runs the workload at its minimum size (the self-check).
	toy bool
	// outDir receives traces and deployment logs.
	outDir string
}

// minReps is the fewest repetitions a simulation workload makes, traced
// and untraced each, so set-up time and run time are medians.
const minReps = 3

// report accumulates one workload's results.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	lines     []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check counts units output units as attempted, and as failed (with a
// note) when ok is false.
func (r *report) check(ok bool, units int, format string, args ...any) {
	r.attempted += units
	if !ok {
		r.failed += units
		r.note("CHECK FAILED: "+format, args...)
	}
}

var workloads = map[string]func(*runCtx) (*report, error){
	"e15-internet":   runE15,
	"reflector-loop": runReflector,
	"ctl-sessions":   runCtlSessions,
}

func main() {
	// The ctl-sessions deployment re-executes this binary as each of its
	// role processes.
	if deploy.IsChild() {
		if err := deploy.RunChild(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: e15-internet, reflector-loop or ctl-sessions")
	seed := flag.Uint64("seed", 42, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 30, "measured time per run, seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	r := &runCtx{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		outDir:   filepath.Join(".bench_build", "out"),
	}
	rep, err := execute(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, r, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs r's workload and checks that it reported every metric the
// benchmark defines.
func execute(r *runCtx) (*report, error) {
	rep, err := workloads[r.workload](r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.workload, err)
	}
	for _, m := range endToEnd {
		v, ok := rep.e2e[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: end-to-end metric %s not measured", r.workload, m.Name)
		}
		if v <= 0 {
			rep.check(false, 1, "end-to-end metric %s = %v, expected > 0", m.Name, v)
		}
	}
	if r.trace {
		for _, m := range perLayer {
			if _, ok := rep.layer[m.Name]; !ok {
				// A layer this workload does not reach did no work.
				rep.layer[m.Name] = 0
			}
		}
	}
	return rep, nil
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

func printResult(f io.Writer, r *runCtx, rep *report) error {
	fmt.Fprintf(f, "perfbench %s seed=%d seconds=%g trace=%v\n", r.workload, r.seed, r.seconds.Seconds(), r.trace)
	for _, l := range rep.lines {
		fmt.Fprintln(f, l)
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintln(f, "end-to-end:")
	for _, m := range endToEnd {
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", m.Name, rep.e2e[m.Name], m.Unit)
		if !r.trace {
			res.Metrics[m.Name] = metricValue{rep.e2e[m.Name], m.Unit}
		}
	}
	if r.trace {
		fmt.Fprintln(f, "per-layer:")
		names := make([]string, 0, len(perLayer))
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := layerDef(name)
			fmt.Fprintf(f, "  %-28s %14.6g %s\n", m.Name, rep.layer[m.Name], m.Unit)
			res.Metrics[m.Name] = metricValue{rep.layer[m.Name], m.Unit}
		}
	}
	fmt.Fprintf(f, "fail_frac = %d/%d\n", rep.failed, rep.attempted)
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(data))
	return err
}
