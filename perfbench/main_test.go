package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// The regression bounds are BENCHMARK.json's own; drop them.
	for i := range b.EndToEnd {
		b.EndToEnd[i] = metricDef{Name: b.EndToEnd[i].Name, Unit: b.EndToEnd[i].Unit, Better: b.EndToEnd[i].Better}
	}
	return b
}

// runBench runs one short benchmark and returns its exit code, parsed
// result line and standard error.
func runBench(t *testing.T, cfg config) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(&cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's perLayer table")
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced
// and traced, and checks the result line carries every named metric
// with its unit and that every reply checked out.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := w + "/trace0"
			defs := endToEnd
			if traced {
				name, defs = w+"/trace1", perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w, seed: 7, seconds: 0.5, trace: traced, traceDir: t.TempDir(), setups: 2}
				code, res, stderr := runBench(t, cfg)
				if code != 0 || !res.Correct {
					t.Fatalf("exit %d correct=%t; stderr:\n%s", code, res.Correct, stderr)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted %d", res.Attempted)
				}
				// The open loop keeps its rate however slow the host (the
				// race detector, say), and then sheds victims too; the
				// closed loops must never fail.
				if w != tenantMix && res.Failed != 0 {
					t.Errorf("%d of %d calls failed", res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestCorruptedReplyFailsTheRun arms the kernels to return wrong outputs
// after warm-up and checks that the run reports it and exits non-zero.
func TestCorruptedReplyFailsTheRun(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := config{workload: w, seed: 3, seconds: 0.3, traceDir: t.TempDir(), setups: 1, corruptEvery: 5}
			code, res, _ := runBench(t, cfg)
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Errorf("corrupted replies: exit %d correct=%t failed=%d; want a failed run", code, res.Correct, res.Failed)
			}
		})
	}
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, err := makeInputs(w, 11, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, 11, 2*time.Second)
		c, _ := makeInputs(w, 12, 2*time.Second)
		if a.fingerprint != b.fingerprint {
			t.Errorf("%s: same seed, fingerprints %s and %s", w, a.fingerprint, b.fingerprint)
		}
		if a.fingerprint == c.fingerprint {
			t.Errorf("%s: seeds 11 and 12 share fingerprint %s", w, a.fingerprint)
		}
	}
}

func TestCounterCrossCheck(t *testing.T) {
	good := serverDelta{admitted: 10, shed: 2, tenantAdmitted: map[string]uint64{"a": 6, "b": 4},
		batchedInvocations: 10, leaseGrants: 3, revocations: 1, activeLeases: 2}
	if bad := crossCheck(good, 12, 12); len(bad) != 0 {
		t.Fatalf("consistent counters flagged: %v", bad)
	}
	broken := good
	broken.batchedInvocations = 11
	broken.activeLeases = 0
	if bad := crossCheck(broken, 13, 11); len(bad) != 4 {
		t.Errorf("want 4 violations (attempts, attempted, batched, leases), got %v", bad)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hot-warm", "--trace", "2"},
		{"--workload", "hot-warm", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a usage error", args, code, stdout.String())
		}
	}
}
