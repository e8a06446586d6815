package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuSelf returns the user+system CPU time this process has used.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOf returns the CPU time process pid's threads have run, summed from
// /proc/<pid>/task/*/schedstat (nanoseconds, unlike the clock ticks of
// /proc/<pid>/stat). Threads that already exited are not counted; Go
// runtimes keep their threads.
func cpuOf(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited while we listed
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("parse %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMB returns the peak resident set (VmHWM) of process pid, in MB;
// pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// heapSampler tracks the peak live Go heap of this process by sampling
// runtime/metrics on a short period.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				if v := s[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
				h.mu.Unlock()
			}
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// gcSnap is a reading of the Go runtime's allocation and GC counters.
type gcSnap struct {
	allocBytes uint64
	cycles     uint32
	pauseNs    uint64
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{allocBytes: ms.TotalAlloc, cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// gcLayer reports the runtime's work between two readings.
func gcLayer(out map[string]float64, a, b gcSnap) {
	out["gc.alloc_mb"] = float64(b.allocBytes-a.allocBytes) / (1 << 20)
	out["gc.cycles"] = float64(b.cycles - a.cycles)
	out["gc.pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
}

// hostStat is a reading of the VM's CPU time counters in /proc/stat.
type hostStat struct{ steal, total uint64 }

func readHost() hostStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var h hostStat
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostStat{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of the VM's CPU time the hypervisor took for
// other machines between readings a and b: time our vCPUs were ready to
// run but did not.
func stealShare(a, b hostStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// maxSteal is the largest steal share a timed sample may see and still
// count as clean. Outside steal bursts the share stays under 1%; in one,
// it runs at 5-30%, and times rise by up to 2.6x.
const maxSteal = 0.02

// clean returns the indices of the samples whose steal share is at most
// maxSteal. When fewer than half the samples are that clean, it returns
// the cleanest half, so a run inside a steal burst still reports its
// least disturbed samples.
func clean(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := 0
	for n < len(idx) && steal[idx[n]] <= maxSteal {
		n++
	}
	if half := (len(idx) + 1) / 2; n < half {
		n = half
	}
	out := idx[:n]
	sort.Ints(out)
	return out
}

// pickMedian is the median of xs over the samples at indices keep.
func pickMedian(xs []float64, keep []int) float64 {
	ys := make([]float64, len(keep))
	for i, k := range keep {
		ys[i] = xs[k]
	}
	return median(ys)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantile is the highest quantile, capped at 0.99, that leaves at
// least ten of n samples beyond it; 0.5 when there are too few samples
// for any tail.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
