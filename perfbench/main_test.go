package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dtc/internal/deploy"
)

// TestMain lets the ctl-sessions deployment re-execute the test binary as
// its role processes.
func TestMain(m *testing.M) {
	if deploy.IsChild() {
		if err := deploy.RunChild(); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name, Why string }
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	bf := readBenchFile(t)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || m.Better != endToEnd[i].Better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit || m.Better != perLayer[i].Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, perLayer[i])
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
}

// TestToyWorkloads runs every workload at its minimum size, untraced and
// traced, and checks that all output checks pass and that the result line
// carries every metric with its unit.
func TestToyWorkloads(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				r := &runCtx{workload: name, seed: 7, seconds: 500 * time.Millisecond,
					trace: traced, toy: true, outDir: t.TempDir()}
				rep, err := execute(r)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := printResult(&buf, r, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metricValue
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, buf.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestClean checks which samples the medians keep: every sample under the
// steal limit, and never fewer than the cleanest half.
func TestClean(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  string
	}{
		{[]float64{0, 0.001, 0.02, 0}, "[0 1 2 3]"},
		{[]float64{0, 0.3, 0.001, 0.05, 0}, "[0 2 4]"},
		{[]float64{0.3, 0.1, 0.2, 0.05}, "[1 3]"},
		{[]float64{0.1, 0.3, 0.2}, "[0 2]"},
	} {
		if got := fmt.Sprint(clean(c.steal)); got != c.want {
			t.Errorf("clean(%v) = %s, want %s", c.steal, got, c.want)
		}
	}
}
