package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/wire"
)

func TestInvocationIDsAreAssignedAndUnique(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		_, rep, err := s.Invoke(context.Background(), "k", nil)
		if err != nil {
			t.Fatalf("Invoke %d: %v", i, err)
		}
		if rep.InvocationID == "" {
			t.Fatal("report has no invocation ID")
		}
		if seen[rep.InvocationID] {
			t.Errorf("invocation ID %q reused", rep.InvocationID)
		}
		seen[rep.InvocationID] = true
		// Logs and client results join on this exact text.
		if want := fmt.Sprintf("inv-%d", i+1); rep.InvocationID != want {
			t.Errorf("invocation ID = %q, want %q", rep.InvocationID, want)
		}
		if rep.Attempts != 1 {
			t.Errorf("Attempts = %d for a healthy invocation, want 1", rep.Attempts)
		}
	}
}

func TestStatsPerKernelAndPerDevice(t *testing.T) {
	s, _, _ := newTestServer(t, 2, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
			t.Fatalf("Invoke %d: %v", i, err)
		}
	}

	st := s.Stats()
	ks, ok := st.PerKernel["k"]
	if !ok {
		t.Fatalf("Stats has no per-kernel entry: %+v", st.PerKernel)
	}
	if ks.Invocations != n {
		t.Errorf("Invocations = %d, want %d", ks.Invocations, n)
	}
	if ks.ColdStarts != 1 {
		t.Errorf("ColdStarts = %d, want 1", ks.ColdStarts)
	}
	if ks.Cold.Count != 1 || ks.Warm.Count != n-1 {
		t.Errorf("latency counts cold=%d warm=%d, want 1 and %d", ks.Cold.Count, ks.Warm.Count, n-1)
	}
	if ks.Cold.P50 <= 0 || ks.Warm.P50 <= 0 {
		t.Errorf("latency p50s cold=%v warm=%v, want > 0", ks.Cold.P50, ks.Warm.P50)
	}
	if ks.Cold.P50 <= ks.Warm.P99 {
		t.Errorf("cold p50 %v not slower than warm p99 %v", ks.Cold.P50, ks.Warm.P99)
	}
	if ks.PhasesCold["runtime_init"] <= 0 {
		t.Errorf("cold runtime_init phase = %v, want > 0", ks.PhasesCold["runtime_init"])
	}
	if ks.PhasesWarm["runtime_init"] != 0 {
		t.Errorf("warm runtime_init phase = %v, want 0", ks.PhasesWarm["runtime_init"])
	}

	if len(st.PerDevice) == 0 {
		t.Fatal("Stats has no per-device entries")
	}
	runners := 0
	for id, ds := range st.PerDevice {
		runners += ds.Runners
		if ds.Slots <= 0 && ds.Kind != accel.CPU.String() {
			t.Errorf("device %s reports %d slots", id, ds.Slots)
		}
	}
	if runners != st.Runners {
		t.Errorf("per-device runner sum = %d, want %d", runners, st.Runners)
	}
}

func TestWriteMetricsPrometheusEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
			t.Fatalf("Invoke: %v", err)
		}
	}

	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`kaas_invocations_total{kernel="k"} 2`,
		`kaas_cold_starts_total{kernel="k"} 1`,
		"# TYPE kaas_invocation_latency_seconds histogram",
		`kaas_invocation_latency_seconds_count{kernel="k",temp="cold"} 1`,
		`kaas_invocation_latency_seconds_count{kernel="k",temp="warm"} 1`,
		`kaas_phase_nanoseconds_total{kernel="k",phase="runtime_init",temp="cold"}`,
		"# TYPE kaas_device_slots gauge",
		"# TYPE kaas_device_active_contexts gauge",
		"# TYPE kaas_device_utilization gauge",
		`kaas_runners{device="`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("--- metrics output ---\n%s", out)
	}
}

// TestInvocationIDOverWire: the server-assigned invocation ID travels in
// the result header, so clients can join their observations against
// server logs and metrics.
func TestInvocationIDOverWire(t *testing.T) {
	srv, tcp, logs := startTCP(t)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := srv.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	conn := dialWire(t, tcp.Addr())
	if err := wire.Write(conn, &wire.Message{
		Type:   wire.MsgInvoke,
		Header: wire.Header{Kernel: "k"},
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	reply, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if reply.Type != wire.MsgResult {
		t.Fatalf("reply = %s (%s), want result", reply.Type, reply.Header.Error)
	}
	if reply.Header.InvocationID == "" {
		t.Fatal("result header has no invocation ID")
	}
	// The same ID appears in the server's structured cold-start log line.
	waitFor(t, 2*time.Second, func() bool {
		return strings.Contains(logs.String(), "inv="+reply.Header.InvocationID)
	}, "invocation ID in server logs")
}
