package main

import (
	"testing"
	"time"

	"kaas/internal/shm"
)

// TestOOBCellsCountMeasuredWindowOnly pins the -oob cells to the
// measured invocations: the server's data-plane counters are
// cumulative, so a cell that read them without subtracting the warm-up
// would report more batched or out-of-band invocations than it ran.
func TestOOBCellsCountMeasuredWindowOnly(t *testing.T) {
	cfg := oobConfig{Invocations: 16, Conc: 4, Scale: 1000, Seed: 1}
	n := uint64((cfg.Invocations / cfg.Conc) * cfg.Conc)

	batch, err := runOOBBatchCell(cfg, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("runOOBBatchCell: %v", err)
	}
	if batch.BatchedInvocations > uint64(batch.Invocations) {
		t.Errorf("BatchedInvocations = %d, want <= Invocations = %d", batch.BatchedInvocations, batch.Invocations)
	}
	if batch.Dispatches == 0 || batch.Dispatches > batch.BatchedInvocations {
		t.Errorf("Dispatches = %d, want in [1, BatchedInvocations = %d]", batch.Dispatches, batch.BatchedInvocations)
	}

	if ok, reason := shm.Supported(); !ok {
		t.Skipf("out-of-band cell needs shared memory: %s", reason)
	}
	cell, err := runOOBCell(cfg, 4<<10, true)
	if err != nil {
		t.Fatalf("runOOBCell: %v", err)
	}
	if cell.OOBInvocations > n {
		t.Errorf("OOBInvocations = %d, want <= %d measured invocations", cell.OOBInvocations, n)
	}
	if cell.OOBInvocations == 0 {
		t.Error("OOBInvocations = 0, want the measured invocations to travel out-of-band")
	}
}
