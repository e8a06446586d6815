package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dtc/internal/routing"
	"dtc/internal/topology"
)

// inputs is how many inputs, each drawn from the run's seed, the
// repetitions of a simulation workload take turns on. A workload can run
// 15% slower on one graph than on another, so cycling through several
// keeps a run's median from resting on a single draw.
const inputs = 3

// inputSeed is the seed of input k of a run seeded with seed; input 0 is
// the run's seed itself.
func inputSeed(seed uint64, k int) uint64 { return seed + uint64(k)*0x9E3779B97F4A7C15 }

// repOut is one repetition of a simulation workload: a fresh set-up, then
// the simulated run.
type repOut struct {
	setup, run time.Duration
	cpu        time.Duration // this process's CPU over set-up and run
	steal      float64       // the host's steal share over the repetition
	layer      map[string]float64
}

// repeat runs one repetition after another until r.seconds have passed
// and at least minReps untraced (and, with tracing, minReps traced)
// repetitions are done. The repetitions take turns on cycle inputs. An
// untraced run ends on a complete cycle, so every input weighs the same
// in its medians. A traced run pairs an untraced and a traced repetition
// on each input in turn and ends on a complete pair, so the tracing
// overhead compares like with like. End-to-end metrics are medians over
// the untraced repetitions, per-layer metrics medians over the traced
// ones, both over the clean repetitions (see clean).
func repeat(r *runCtx, rep *report, cycle int, one func(input int, tr *tracer) (*repOut, error)) error {
	heap := startHeapSampler()
	var plain, traced []*repOut
	var last *tracer
	per, end := 1, cycle // repetitions per input in turn; a run ends on a multiple of end
	if r.trace {
		per, end = 2, 2
	}
	deadline := time.Now().Add(r.seconds)
	for i := 0; len(plain) < minReps || (r.trace && len(traced) < minReps) || time.Now().Before(deadline) || i%end != 0; i++ {
		var tr *tracer
		if r.trace && i%2 == 1 {
			tr = newTracer()
		}
		g0, h0 := readGC(), readHost()
		o, err := one(i/per%cycle, tr)
		if err != nil {
			heap.Stop()
			return err
		}
		o.steal = stealShare(h0, readHost())
		if tr != nil {
			gcLayer(o.layer, g0, readGC())
			o.layer["trace.spans"] = float64(tr.count())
			traced = append(traced, o)
			last = tr
		} else {
			plain = append(plain, o)
		}
		// Free this repetition's worlds before the next one builds.
		runtime.GC()
	}
	peakHeap := heap.Stop()

	keepPlain, keepTraced := clean(steals(plain)), clean(steals(traced))
	pick := func(outs []*repOut, keep []int, f func(*repOut) time.Duration) float64 {
		return pickMedian(durs(outs, f), keep)
	}
	rep.e2e["setup_s"] = pick(plain, keepPlain, func(o *repOut) time.Duration { return o.setup })
	rep.e2e["run_s"] = pick(plain, keepPlain, func(o *repOut) time.Duration { return o.run })
	rep.e2e["cpu_s"] = pick(plain, keepPlain, func(o *repOut) time.Duration { return o.cpu })
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rep.e2e["peak_rss_mb"] = rss
	rep.note("repetitions: %d untraced, %d traced; set-up and run times are medians over the %d and %d clean ones",
		len(plain), len(traced), len(keepPlain), len(keepTraced))
	rep.note("untraced run times, s: %.3f; host steal shares: %.3f", durs(plain, func(o *repOut) time.Duration { return o.run }), steals(plain))

	if r.trace {
		keys := map[string]bool{}
		for _, o := range traced {
			for k := range o.layer {
				keys[k] = true
			}
		}
		for k := range keys {
			xs := make([]float64, 0, len(traced))
			for _, o := range traced {
				xs = append(xs, o.layer[k])
			}
			rep.layer[k] = pickMedian(xs, keepTraced)
		}
		rep.layer["gc.peak_heap_mb"] = peakHeap
		tracedRun := pick(traced, keepTraced, func(o *repOut) time.Duration { return o.run })
		rep.layer["trace.overhead_pct"] = 100 * (tracedRun/rep.e2e["run_s"] - 1)
		rep.note("tracing overhead: traced run %.4f s vs untraced %.4f s (medians)", tracedRun, rep.e2e["run_s"])
		path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := last.write(path); err != nil {
			return err
		}
		rep.note("spans of the last traced repetition written to %s", path)
	}
	return nil
}

// buildSampleMS is the mean time of one shortest-path tree build on g,
// over a fixed sample of destinations. It stands in for routing's self
// time inside a run: run_builds x build_ms.
func buildSampleMS(g *topology.Graph, dsts []int) (float64, error) {
	if len(dsts) > 64 {
		dsts = dsts[:64]
	}
	dsts = append([]int(nil), dsts...)
	sort.Ints(dsts)
	b := routing.NewBuilder(g, nil)
	var t routing.Tree
	start := time.Now()
	for _, d := range dsts {
		if err := b.BuildInto(&t, d); err != nil {
			return 0, err
		}
	}
	return millis(time.Since(start)) / float64(len(dsts)), nil
}

// spanSum is the total duration (s) of the spans named name.
func spanSum(tr *tracer, name string) float64 {
	s := 0.0
	for _, d := range tr.durations(name) {
		s += d
	}
	return s
}

// spanMeanMS is the mean duration (ms) of the spans named name.
func spanMeanMS(tr *tracer, name string) float64 {
	ds := tr.durations(name)
	if len(ds) == 0 {
		return 0
	}
	s := 0.0
	for _, d := range ds {
		s += d
	}
	return 1000 * s / float64(len(ds))
}

// steals is the host's steal share over each repetition.
func steals(outs []*repOut) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = o.steal
	}
	return xs
}

// durs is f of each repetition, in seconds.
func durs(outs []*repOut, f func(*repOut) time.Duration) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o).Seconds()
	}
	return xs
}
