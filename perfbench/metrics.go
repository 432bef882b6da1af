package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names and units; a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the platform sees, printed by the
// untraced run (--trace 0). The tail latencies are per-layer metrics
// (loadgen.*_p99_ms): on the closed loops they move with every pause the
// hypervisor gives the host's CPUs, far beyond any useful bound.
var endToEnd = []metricDef{
	{"throughput_ips", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"cpu_us_per_inv", "us", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of single layers, printed by the traced run
// (--trace 1). README.md maps each onto the end-to-end metric it moves.
var perLayer = []metricDef{
	{"loadgen.attempted", "count", "higher"},
	{"loadgen.succeeded", "count", "higher"},
	{"loadgen.failed", "count", "lower"},
	{"loadgen.failed_frac", "ratio", "lower"},
	{"loadgen.outputs_checked", "count", "higher"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.latency_p99_ms", "ms", "lower"},
	{"loadgen.victim_p99_ms", "ms", "lower"},
	{"client.attempts_per_inv", "ratio", "lower"},
	{"client.remote_errors", "count", "lower"},
	{"client.conn_errors", "count", "lower"},
	{"client.untyped_errors", "count", "lower"},
	{"client.p50_ms.oob", "ms", "lower"},
	{"client.p50_ms.inband", "ms", "lower"},
	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"wire.header_bytes_per_frame", "bytes", "lower"},
	{"wire.allocs_per_frame", "count", "lower"},
	{"core.transport.bytes_in_per_inv", "bytes", "lower"},
	{"core.transport.bytes_out_per_inv", "bytes", "lower"},
	{"core.transport.reads_per_inv", "count", "lower"},
	{"core.transport.writes_per_inv", "count", "lower"},
	{"core.transport.cpu_us_per_inv", "us", "lower"},
	{"core.invoke_p50_us", "us", "lower"},
	{"core.invoke_p99_us", "us", "lower"},
	{"core.cpu_us_per_inv", "us", "lower"},
	{"core.throughput_ips", "1/s", "higher"},
	{"core.admission.queue_p50_ms_modeled", "ms", "lower"},
	{"core.admission.queue_p99_ms_modeled", "ms", "lower"},
	{"core.admission.shed_frac", "ratio", "lower"},
	{"core.admission.aggressor_shed_share", "ratio", "higher"},
	{"core.admission.tenant_success_min", "ratio", "higher"},
	{"core.runners.cold_frac", "ratio", "lower"},
	{"core.runners.cached_cold_frac", "ratio", "lower"},
	{"core.runners.prewarms", "count", "lower"},
	{"core.runners.reaps", "count", "lower"},
	{"core.runners.evictions", "count", "lower"},
	{"artifact.hit_ratio", "ratio", "higher"},
	{"core.batch.dispatches_per_inv", "ratio", "lower"},
	{"core.batch.mean_size", "count", "higher"},
	{"accel.compute_busy_frac", "ratio", "higher"},
	{"accel.slot_busy_s", "s", "lower"},
	{"accel.exec_p50_ms_modeled", "ms", "lower"},
	{"accel.copy_p50_ms_modeled", "ms", "lower"},
	{"psched.run_cpu_us_per_job", "us", "lower"},
	{"psched.run_overshoot_p99_us", "us", "lower"},
	{"vclock.sleep_overshoot_p99_us", "us", "lower"},
	{"shm.oob_frac", "ratio", "higher"},
	{"shm.lease_grants", "count", "lower"},
	{"shm.lease_reuse_ratio", "ratio", "higher"},
	{"shm.revocations", "count", "lower"},
	{"shm.acquire_release_ns", "ns", "lower"},
	{"runtime.alloc_bytes_per_inv", "bytes", "lower"},
	{"runtime.mallocs_per_inv", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.mutex_wait_us_per_inv", "us", "lower"},
	{"runtime.goroutines_after", "count", "lower"},
	{"modeled.server_p50_ms", "ms", "lower"},
	{"modeled.server_p99_ms", "ms", "lower"},
	{"trace.overhead_throughput_frac", "ratio", "lower"},
	{"trace.overhead_p50_ms", "ms", "lower"},
	{"trace.overhead_cpu_us_per_inv", "us", "lower"},
}

// layerMetrics computes the per-layer metrics of a traced run: ph0 is
// the untraced phase, ph1 the traced one over counted connections, pc
// the same workload driven in process.
func layerMetrics(cfg *config, ph0, ph1, pc *phase, micro microResult) map[string]float64 {
	s0, s1, sc := ph0.summarize(), ph1.summarize(), pc.summarize()
	v := make(map[string]float64)

	// Validity of the traced run.
	attempted := float64(ph1.attempted())
	var checked, untyped, cold, cached float64
	var lags, oob, inband, server []float64
	for _, r := range ph1.recs {
		lags = append(lags, r.lag.ms())
		switch r.out {
		case okCall:
			checked++
			server = append(server, r.server.ms())
			if r.cold {
				cold++
			}
			if r.cold && r.cached {
				cached++
			}
			if cfg.workload == bulkData {
				if r.path == 0 {
					oob = append(oob, r.lat.ms())
				} else {
					inband = append(inband, r.lat.ms())
				}
			}
		case mismatch:
			checked++
		case untypedErr:
			untyped++
		}
	}
	ok := float64(s1.ok)
	v["loadgen.attempted"] = attempted
	v["loadgen.succeeded"] = ok
	v["loadgen.failed"] = attempted - ok
	v["loadgen.failed_frac"] = ratio(attempted-ok, attempted)
	v["loadgen.outputs_checked"] = checked
	v["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	v["loadgen.latency_p99_ms"] = s0.p99
	v["loadgen.victim_p99_ms"] = s0.victimP99

	v["client.attempts_per_inv"] = ratio(float64(ph1.clientAttempts), attempted)
	v["client.remote_errors"] = float64(ph1.client.RemoteErrors)
	v["client.conn_errors"] = float64(ph1.client.ConnErrors)
	v["client.untyped_errors"] = untyped
	v["client.p50_ms.oob"] = quantile(oob, 0.5)
	v["client.p50_ms.inband"] = quantile(inband, 0.5)

	v["wire.encode_ns_per_frame"] = micro.encodeNs
	v["wire.decode_ns_per_frame"] = micro.decodeNs
	v["wire.header_bytes_per_frame"] = micro.headerBytes
	v["wire.allocs_per_frame"] = micro.allocsPerFrame

	v["core.transport.bytes_in_per_inv"] = ratio(float64(ph1.conn[0]), attempted)
	v["core.transport.bytes_out_per_inv"] = ratio(float64(ph1.conn[1]), attempted)
	v["core.transport.reads_per_inv"] = ratio(float64(ph1.conn[2]), attempted)
	v["core.transport.writes_per_inv"] = ratio(float64(ph1.conn[3]), attempted)
	v["core.transport.cpu_us_per_inv"] = s0.cpuPerInv - sc.cpuPerInv

	var coreLat, queue, exec, copies []float64
	for _, r := range pc.recs {
		if r.out != okCall {
			continue
		}
		coreLat = append(coreLat, r.lat.us())
		queue = append(queue, r.queue.ms())
		exec = append(exec, r.exec.ms())
		copies = append(copies, r.copy.ms())
	}
	v["core.invoke_p50_us"] = quantile(coreLat, 0.50)
	v["core.invoke_p99_us"] = quantile(coreLat, 0.99)
	v["core.cpu_us_per_inv"] = sc.cpuPerInv
	v["core.throughput_ips"] = sc.thr

	d := ph1.stats
	v["core.admission.queue_p50_ms_modeled"] = quantile(queue, 0.50)
	v["core.admission.queue_p99_ms_modeled"] = quantile(queue, 0.99)
	v["core.admission.shed_frac"] = ratio(float64(d.shed), attempted)
	v["core.admission.aggressor_shed_share"] = ratio(float64(d.tenantShed[aggressor]), float64(d.shed))
	v["core.admission.tenant_success_min"] = tenantSuccessMin(ph1)

	v["core.runners.cold_frac"] = ratio(cold, ok)
	v["core.runners.cached_cold_frac"] = ratio(cached, ok)
	v["core.runners.prewarms"] = float64(d.prewarms)
	v["core.runners.reaps"] = float64(d.reaps)
	v["core.runners.evictions"] = float64(d.evictions)
	v["artifact.hit_ratio"] = ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses))

	v["core.batch.dispatches_per_inv"] = ratio(float64(d.batchDispatches), float64(d.admitted))
	v["core.batch.mean_size"] = ratio(float64(d.batchedInvocations), float64(d.batchDispatches))

	v["accel.compute_busy_frac"] = ratio(float64(d.computeBusy), float64(d.busyUptime))
	v["accel.slot_busy_s"] = d.slotBusy.Seconds()
	v["accel.exec_p50_ms_modeled"] = quantile(exec, 0.50)
	v["accel.copy_p50_ms_modeled"] = quantile(copies, 0.50)

	v["psched.run_cpu_us_per_job"] = micro.pschedCPUPerJobUs
	v["psched.run_overshoot_p99_us"] = micro.pschedOvershootP99Us
	v["vclock.sleep_overshoot_p99_us"] = micro.sleepOvershootP99Us

	v["shm.oob_frac"] = ratio(float64(d.oobInvocations), float64(d.admitted))
	v["shm.lease_grants"] = float64(d.leaseGrants)
	v["shm.lease_reuse_ratio"] = ratio(float64(d.leaseReuses), float64(d.leaseGrants))
	v["shm.revocations"] = float64(d.revocations)
	v["shm.acquire_release_ns"] = micro.acquireReleaseNs

	rt0, rt1 := ph1.rt0, ph1.rt1
	v["runtime.alloc_bytes_per_inv"] = ratio(rt1.allocBytes-rt0.allocBytes, attempted)
	v["runtime.mallocs_per_inv"] = ratio(rt1.allocObjects-rt0.allocObjects, attempted)
	v["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, ph1.cpuTotal.Seconds())
	v["runtime.mutex_wait_us_per_inv"] = ratio((rt1.mutexWait-rt0.mutexWait)*1e6, attempted)

	v["modeled.server_p50_ms"] = quantile(server, 0.50)
	v["modeled.server_p99_ms"] = quantile(server, 0.99)

	v["trace.overhead_throughput_frac"] = ratio(s0.thr-s1.thr, s0.thr)
	v["trace.overhead_p50_ms"] = s1.p50 - s0.p50
	v["trace.overhead_cpu_us_per_inv"] = s1.cpuPerInv - s0.cpuPerInv
	return v
}

// tenantSuccessMin is the lowest per-tenant share of calls that
// succeeded in the phase.
func tenantSuccessMin(ph *phase) float64 {
	type count struct{ ok, all float64 }
	byTenant := map[uint8]*count{}
	for _, r := range ph.recs {
		c := byTenant[r.tenant]
		if c == nil {
			c = &count{}
			byTenant[r.tenant] = c
		}
		c.all++
		if r.out == okCall {
			c.ok++
		}
	}
	lowest := 1.0
	for _, c := range byTenant {
		lowest = min(lowest, ratio(c.ok, c.all))
	}
	return lowest
}
