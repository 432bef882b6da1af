package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"kaas"
	"kaas/internal/core"
	"kaas/internal/shm"
)

// oobConfig parameterizes the -oob data-plane benchmark.
type oobConfig struct {
	Invocations int     // invocations per cell
	Conc        int     // concurrent clients per cell
	Scale       float64 // modeled seconds per wall second
	Seed        int64   // payload-content seed (pinned in CI)
	Out         string  // JSON report path ("" = stdout only)
}

// oobAllocBudget is the flat alloc-bytes-per-op ceiling every out-of-band
// cell must stay under regardless of payload size: the payload moves by
// lease handle, so per-invocation allocation is bounded by protocol
// framing (headers, reply bookkeeping), not by payload bytes. In-band
// cells blow through this budget as soon as payloads outgrow it, which
// is exactly the contrast the gate pins down.
const oobAllocBudget = 128 << 10

// oobPayloadSizes is the payload sweep. The largest is 8x the alloc
// budget, so a single accidental payload copy on the serving path fails
// the gate outright. (The budget leaves room for the occasional fresh
// lease grant under concurrency spikes — a grant allocates one
// payload-class slab, amortized across the run.)
var oobPayloadSizes = []int{4 << 10, 64 << 10, 1 << 20}

// oobBatchWindows is the micro-batching sweep (0 = batching off, the
// comparison arm).
var oobBatchWindows = []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond}

// oobCell is one payload-size x transfer-mode measurement.
type oobCell struct {
	Mode            string  `json:"mode"` // "in-band" or "oob"
	PayloadBytes    int     `json:"payload_bytes"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	MallocsPerOp    float64 `json:"mallocs_per_op"`
	WallUsPerOp     float64 `json:"wall_us_per_op"`
	OOBInvocations  uint64  `json:"oob_invocations"`
	OOBBytes        uint64  `json:"oob_bytes"`
	InBandBytes     uint64  `json:"inband_bytes"`
	LeaseGrants     uint64  `json:"lease_grants"`
	LeaseReuses     uint64  `json:"lease_reuses"`
}

// oobBatchCell is one batch-window measurement at fixed concurrency.
type oobBatchCell struct {
	WindowMs           float64 `json:"window_ms"` // modeled
	Invocations        int     `json:"invocations"`
	Dispatches         uint64  `json:"device_dispatches"`
	BatchedInvocations uint64  `json:"batched_invocations"`
	MeanBatch          float64 `json:"mean_batch_size"`
	ThroughputPerSec   float64 `json:"throughput_per_sec"`
	// UtilizationPct is modeled device utilization: useful compute time
	// over compute plus the launch overhead actually paid. Batching
	// amortizes the per-dispatch launch overhead across members, so this
	// must not drop below the unbatched arm.
	UtilizationPct float64 `json:"device_utilization_pct"`
}

// oobReport is the JSON document -oob-out writes (BENCH_PR10.json).
type oobReport struct {
	Skipped     string         `json:"skipped,omitempty"` // non-empty when shm is unsupported
	Scale       float64        `json:"scale"`
	Conc        int            `json:"concurrency"`
	Invocations int            `json:"invocations_per_cell"`
	AllocBudget int            `json:"oob_alloc_budget_bytes_per_op"`
	Cells       []oobCell      `json:"cells"`
	Batch       []oobBatchCell `json:"batch"`
	Violations  []string       `json:"violations"`
}

// oobEchoKernel is the bench's payload carrier: fixed modeled compute
// (1 ms on a P100) plus payload-proportional transfer cost, so the
// data-plane and launch-overhead effects dominate the measurement.
type oobEchoKernel struct{}

func (oobEchoKernel) Name() string          { return "oobecho" }
func (oobEchoKernel) Kind() kaas.DeviceKind { return kaas.GPU }

// oobEchoWork is the echo kernel's modeled work: 1 ms on a P100, half
// the device's 2 ms launch overhead, so amortizing launches matters.
const oobEchoWork = 8e8

func (oobEchoKernel) Cost(req *kaas.Request) (kaas.Cost, error) {
	n := int64(len(req.Data))
	return kaas.Cost{Work: oobEchoWork, BytesIn: n, BytesOut: n, DeviceMemory: n + 1<<20}, nil
}
func (oobEchoKernel) Execute(req *kaas.Request) (*kaas.Response, error) {
	out := make([]byte, len(req.Data))
	copy(out, req.Data)
	return &kaas.Response{Values: map[string]float64{"bytes": float64(len(out))}, Data: out}, nil
}

// oobPlatform builds one bench platform. Result computation is off so
// the measurement isolates the serving path (wire, lease, dispatch),
// not the host-side reference kernel.
func oobPlatform(cfg oobConfig, oob bool, window time.Duration) (*kaas.Platform, error) {
	opts := []kaas.Option{
		kaas.WithListenAddr("127.0.0.1:0"),
		kaas.WithTimeScale(cfg.Scale),
		kaas.WithAccelerators(kaas.TeslaP100),
		kaas.WithoutResultComputation(),
		kaas.WithClientMux(4),
	}
	if oob {
		opts = append(opts, kaas.WithOutOfBand(256<<20))
	}
	if window > 0 {
		opts = append(opts, kaas.WithBatching(window, 8))
	}
	p, err := kaas.New(opts...)
	if err != nil {
		return nil, err
	}
	if err := p.Register(oobEchoKernel{}); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// oobDrive fires cfg.Invocations invocations of the echo kernel across
// cfg.Conc workers through c and returns the wall-clock elapsed time.
func oobDrive(c *kaas.Client, cfg oobConfig, payload []byte) (time.Duration, error) {
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	per := cfg.Invocations / cfg.Conc
	if per == 0 {
		per = 1
	}
	start := time.Now()
	for w := 0; w < cfg.Conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.Invoke("oobecho", nil, payload); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), firstErr
}

// runOOBCell measures one payload-size cell in one transfer mode.
func runOOBCell(cfg oobConfig, payloadBytes int, oob bool) (*oobCell, error) {
	p, err := oobPlatform(cfg, oob, 0)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	c, err := p.NewClient()
	if err != nil {
		return nil, err
	}
	defer c.Close()

	payload := make([]byte, payloadBytes)
	rand.New(rand.NewSource(cfg.Seed)).Read(payload)

	// Warm up: cold starts, mux connections, and lease negotiation all
	// happen here, outside the measured window.
	warm := cfg
	warm.Invocations = 4 * cfg.Conc
	if _, err := oobDrive(c, warm, payload); err != nil {
		return nil, err
	}

	// The server's data-plane counters are cumulative, so the cell
	// reports their growth over the measured window only.
	dp0 := p.Stats().DataPlane
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	elapsed, err := oobDrive(c, cfg, payload)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	n := float64((cfg.Invocations / cfg.Conc) * cfg.Conc)
	dp := dataPlaneDelta(dp0, p.Stats().DataPlane)
	mode := "in-band"
	if oob {
		mode = "oob"
	}
	return &oobCell{
		Mode:            mode,
		PayloadBytes:    payloadBytes,
		AllocBytesPerOp: float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		MallocsPerOp:    float64(m1.Mallocs-m0.Mallocs) / n,
		WallUsPerOp:     float64(elapsed.Microseconds()) / n,
		OOBInvocations:  dp.OOBInvocations,
		OOBBytes:        dp.OOBBytes,
		InBandBytes:     dp.InBandBytes,
		LeaseGrants:     dp.LeaseGrants,
		LeaseReuses:     dp.LeaseReuses,
	}, nil
}

// dataPlaneDelta returns the growth of the cumulative data-plane
// counters from before to after; gauges (active leases, arena capacity)
// are left zero.
func dataPlaneDelta(before, after core.DataPlaneStats) core.DataPlaneStats {
	return core.DataPlaneStats{
		OOBInvocations:     after.OOBInvocations - before.OOBInvocations,
		OOBBytes:           after.OOBBytes - before.OOBBytes,
		InBandBytes:        after.InBandBytes - before.InBandBytes,
		LeaseGrants:        after.LeaseGrants - before.LeaseGrants,
		LeaseReuses:        after.LeaseReuses - before.LeaseReuses,
		LeaseRevocations:   after.LeaseRevocations - before.LeaseRevocations,
		BatchDispatches:    after.BatchDispatches - before.BatchDispatches,
		BatchedInvocations: after.BatchedInvocations - before.BatchedInvocations,
	}
}

// runOOBBatchCell measures one batch-window cell at the configured
// concurrency (payload-free: the batching effect is launch-overhead
// amortization, not data movement).
func runOOBBatchCell(cfg oobConfig, window time.Duration) (*oobBatchCell, error) {
	p, err := oobPlatform(cfg, false, window)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	c, err := p.NewClient()
	if err != nil {
		return nil, err
	}
	defer c.Close()

	warm := cfg
	warm.Invocations = 2 * cfg.Conc
	if _, err := oobDrive(c, warm, nil); err != nil {
		return nil, err
	}
	dp0 := p.Stats().DataPlane
	elapsed, err := oobDrive(c, cfg, nil)
	if err != nil {
		return nil, err
	}

	n := (cfg.Invocations / cfg.Conc) * cfg.Conc
	dp := dataPlaneDelta(dp0, p.Stats().DataPlane)
	cell := &oobBatchCell{
		WindowMs:           float64(window) / float64(time.Millisecond),
		Invocations:        n,
		Dispatches:         dp.BatchDispatches,
		BatchedInvocations: dp.BatchedInvocations,
		ThroughputPerSec:   float64(n) / elapsed.Seconds(),
	}
	if dp.BatchDispatches > 0 {
		cell.MeanBatch = float64(dp.BatchedInvocations) / float64(dp.BatchDispatches)
	}

	// Modeled utilization: every invocation carries the same compute time
	// (work / device rate); launch overhead is paid once per device
	// dispatch — per invocation unbatched, per batch otherwise.
	compute := oobEchoWork / kaas.TeslaP100.ComputeRate * float64(time.Second)
	overhead := float64(kaas.TeslaP100.LaunchOverhead)
	dispatches := float64(n)
	if window > 0 {
		dispatches = float64(dp.BatchDispatches)
	}
	useful := float64(n) * compute
	cell.UtilizationPct = 100 * useful / (useful + dispatches*overhead)
	return cell, nil
}

// runOOB sweeps the zero-copy data plane (payload size x transfer mode)
// and the micro-batcher (batch window at fixed concurrency), writes the
// report, and fails if the out-of-band path stopped being zero-copy or
// batching stopped coalescing. A host without shared-memory support
// reports the reason and exits cleanly — the fallback there is the
// in-band path, which the rest of the suite already covers.
func runOOB(w io.Writer, cfg oobConfig) error {
	report := &oobReport{
		Scale:       cfg.Scale,
		Conc:        cfg.Conc,
		Invocations: cfg.Invocations,
		AllocBudget: oobAllocBudget,
		Violations:  []string{},
	}
	if ok, reason := shm.Supported(); !ok {
		report.Skipped = reason
		fmt.Fprintf(w, "oob: skipping data-plane sweep: %s\n", reason)
		fmt.Fprintln(w, "oob: clients on this host fall back to in-band transfer transparently")
		return writeOOBReport(w, cfg, report)
	}

	fmt.Fprintf(w, "oob: data-plane sweep, %d invocations/cell at concurrency %d, scale %.0fx\n",
		cfg.Invocations, cfg.Conc, cfg.Scale)
	fmt.Fprintf(w, "  %-8s %-10s %14s %12s %12s %10s %10s\n",
		"MODE", "PAYLOAD", "ALLOC B/OP", "MALLOCS/OP", "WALL us/OP", "OOB-INV", "GRANTS")
	for _, size := range oobPayloadSizes {
		for _, oob := range []bool{false, true} {
			cell, err := runOOBCell(cfg, size, oob)
			if err != nil {
				return err
			}
			report.Cells = append(report.Cells, *cell)
			fmt.Fprintf(w, "  %-8s %-10d %14.0f %12.1f %12.1f %10d %10d\n",
				cell.Mode, cell.PayloadBytes, cell.AllocBytesPerOp, cell.MallocsPerOp,
				cell.WallUsPerOp, cell.OOBInvocations, cell.LeaseGrants)
			if oob {
				if cell.AllocBytesPerOp > oobAllocBudget {
					report.Violations = append(report.Violations, fmt.Sprintf(
						"oob cell at %d-byte payload allocates %.0f B/op, over the flat %d B/op budget",
						size, cell.AllocBytesPerOp, oobAllocBudget))
				}
				if cell.OOBInvocations == 0 {
					report.Violations = append(report.Violations, fmt.Sprintf(
						"oob cell at %d-byte payload served zero out-of-band invocations", size))
				}
			}
		}
	}

	fmt.Fprintf(w, "oob: micro-batch sweep at concurrency %d\n", cfg.Conc)
	fmt.Fprintf(w, "  %-10s %12s %12s %12s %14s %10s\n",
		"WINDOW", "INV", "DISPATCHES", "MEAN-BATCH", "THROUGHPUT/S", "UTIL")
	var baseline *oobBatchCell
	for _, window := range oobBatchWindows {
		cell, err := runOOBBatchCell(cfg, window)
		if err != nil {
			return err
		}
		report.Batch = append(report.Batch, *cell)
		fmt.Fprintf(w, "  %-10s %12d %12d %12.1f %14.0f %9.1f%%\n",
			time.Duration(cell.WindowMs*float64(time.Millisecond)).String(),
			cell.Invocations, cell.Dispatches, cell.MeanBatch, cell.ThroughputPerSec,
			cell.UtilizationPct)
		if window == 0 {
			baseline = cell
			continue
		}
		if cell.Dispatches == 0 || cell.Dispatches >= uint64(cell.Invocations) {
			report.Violations = append(report.Violations, fmt.Sprintf(
				"batch window %s issued %d dispatches for %d invocations; batching is not coalescing",
				time.Duration(window), cell.Dispatches, cell.Invocations))
		}
		if baseline != nil && cell.UtilizationPct < baseline.UtilizationPct {
			report.Violations = append(report.Violations, fmt.Sprintf(
				"batch window %s device utilization %.1f%% fell below the unbatched arm's %.1f%%",
				time.Duration(window), cell.UtilizationPct, baseline.UtilizationPct))
		}
	}

	return writeOOBReport(w, cfg, report)
}

// writeOOBReport persists the report and turns recorded violations into
// a failing exit, which is what makes the CI job blocking.
func writeOOBReport(w io.Writer, cfg oobConfig, report *oobReport) error {
	if cfg.Out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "oob: report written to %s\n", cfg.Out)
	}
	if len(report.Violations) > 0 {
		for _, v := range report.Violations {
			fmt.Fprintln(w, "oob: VIOLATION:", v)
		}
		return fmt.Errorf("oob: %d data-plane budget violation(s)", len(report.Violations))
	}
	fmt.Fprintln(w, "oob: all data-plane budgets hold")
	return nil
}
