package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kaas"
	"kaas/internal/psched"
	"kaas/internal/shm"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// layerBudget bounds the wall time of each single-layer measurement.
const layerBudget = 300 * time.Millisecond

// microResult holds the single-layer measurements: each layer's public
// functions driven on their own with the workload's frames, job sizes and
// payload sizes.
type microResult struct {
	encodeNs, decodeNs, headerBytes, allocsPerFrame float64
	pschedCPUPerJobUs, pschedOvershootP99Us         float64
	sleepOvershootP99Us                             float64
	acquireReleaseNs                                float64
}

func measureLayers(cfg *config, in *inputs, tr *tracer) microResult {
	var m microResult
	m.encodeNs, m.decodeNs, m.headerBytes, m.allocsPerFrame = measureWire(workloadFrames(cfg, in), tr)
	m.pschedCPUPerJobUs, m.pschedOvershootP99Us = measurePsched(jobWorks(cfg, in), jobConcurrency(cfg.workload), tr)
	m.sleepOvershootP99Us = measureSleep(jobWorks(cfg, in), tr)
	if cfg.workload == bulkData {
		m.acquireReleaseNs = measureArena(in.sizes, tr)
	}
	return m
}

// workloadFrames builds request and reply frames shaped like the
// workload's own: the same kernels, params, tenants and payloads, on
// multiplexed (version 2) streams.
func workloadFrames(cfg *config, in *inputs) []*wire.Message {
	var frames []*wire.Message
	for i := 0; i < 64; i++ {
		r := in.request(cfg.workload, uint64(i), i%bulkWorkers)
		req := &wire.Message{Type: wire.MsgInvoke, Version: 2, Header: wire.Header{
			Kernel: r.kernel, Tenant: r.tenant, Params: map[string]float64{"x": r.x}, StreamID: uint64(i + 1)}}
		rep := &wire.Message{Type: wire.MsgResult, Version: 2, Header: wire.Header{
			Values:        map[string]float64{"x": r.x, "y": 2*r.x + 1},
			InvocationID:  fmt.Sprintf("inv-%d", 1000000+i),
			DurationNanos: int64(2100 * time.Microsecond),
			StreamID:      uint64(i + 1)}}
		if r.size > 0 {
			delete(rep.Header.Values, "y")
			if r.path == 0 {
				// Leased: the payload stays in the arena window.
				req.Header.LeaseID, req.Header.LeaseLen = uint64(i+1), int64(r.size)
				rep.Header.LeaseResultLen = int64(r.size)
			} else {
				req.Body = make([]byte, r.size)
				rep.Body = req.Body
			}
		}
		frames = append(frames, req, rep)
	}
	return frames
}

// measureWire times wire.Write and wire.Read over the frames and reports
// ns per frame for each, JSON header bytes per frame, and heap
// allocations per frame encoded and decoded.
func measureWire(frames []*wire.Message, tr *tracer) (encNs, decNs, hdrBytes, allocs float64) {
	encoded := make([][]byte, len(frames))
	var hdr int
	for i, f := range frames {
		var b bytes.Buffer
		if err := wire.Write(&b, f); err != nil {
			panic(fmt.Sprintf("encode benchmark frame: %v", err)) // frames are built above
		}
		encoded[i] = b.Bytes()
		hdr += len(encoded[i]) - 14 - len(f.Body) // preamble 10, body length 4
	}
	var (
		sink   bytes.Buffer
		rd     bytes.Reader
		rounds int
		encDur time.Duration
		decDur time.Duration
		m0, m1 runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for rounds < 3 || time.Since(start) < layerBudget {
		t0 := time.Now()
		for _, f := range frames {
			sink.Reset()
			_ = wire.Write(&sink, f) // encoded once above without error
		}
		t1 := time.Now()
		for _, b := range encoded {
			rd.Reset(b)
			if _, err := wire.Read(&rd); err != nil {
				panic(fmt.Sprintf("decode benchmark frame: %v", err))
			}
		}
		t2 := time.Now()
		tr.record("wire.encode", "", uint64(rounds), t0, t1)
		tr.record("wire.decode", "", uint64(rounds), t1, t2)
		encDur += t1.Sub(t0)
		decDur += t2.Sub(t1)
		rounds++
	}
	runtime.ReadMemStats(&m1)
	n := float64(rounds * len(frames))
	return float64(encDur) / n, float64(decDur) / n, float64(hdr) / float64(len(frames)),
		float64(m1.Mallocs-m0.Mallocs) / n
}

// jobWorks lists the modeled device work of the workload's calls.
func jobWorks(cfg *config, in *inputs) []float64 {
	if cfg.workload != tenantMix {
		return []float64{lightWork}
	}
	works := make([]float64, 0, 1024)
	for _, ev := range in.trace[:min(len(in.trace), 1024)] {
		w := float64(lightWork)
		if ev.Kernel == "heavy" {
			w = heavyWork
		}
		works = append(works, w)
	}
	return works
}

// jobConcurrency is how many calls the workload keeps outstanding (for
// the open loop, about its mean number in flight).
func jobConcurrency(workload string) int {
	switch workload {
	case hotWarm:
		return 64
	case bulkData:
		return bulkWorkers
	default:
		return 16
	}
}

// measurePsched drives one P100-rated psched.Engine at the workload's job
// sizes and concurrency, reporting process CPU per job and the p99 of
// wall time beyond modeled time / scale.
func measurePsched(works []float64, conc int, tr *tracer) (cpuPerJobUs, overshootP99Us float64) {
	eng, err := psched.New(vclock.Scaled(timeScale), psched.Config{Capacity: kaas.TeslaP100.ComputeRate})
	if err != nil {
		panic(err) // capacity is positive
	}
	defer eng.Close()
	var (
		next  atomic.Uint64
		mu    sync.Mutex
		overs []float64
		wg    sync.WaitGroup
	)
	deadline := time.Now().Add(layerBudget)
	cpu0 := cpuTime()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []float64
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				t0 := time.Now()
				modeled, err := eng.Run(context.Background(), works[i%uint64(len(works))])
				t1 := time.Now()
				if err != nil {
					return
				}
				tr.record("psched.run", "", i, t0, t1)
				local = append(local, us(t1.Sub(t0)-modeled/timeScale))
			}
			mu.Lock()
			overs = append(overs, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	return ratio(us(cpu), float64(len(overs))), quantile(overs, 0.99)
}

// measureSleep sleeps a scaled clock for the workload's modeled launch
// plus execution times and reports the p99 of wall time overslept.
func measureSleep(works []float64, tr *tracer) float64 {
	clock := vclock.Scaled(timeScale)
	p := kaas.TeslaP100
	var overs []float64
	start := time.Now()
	for i := 0; time.Since(start) < layerBudget; i++ {
		d := p.LaunchOverhead + time.Duration(works[i%len(works)]/p.ComputeRate*float64(time.Second))
		t0 := time.Now()
		clock.Sleep(d)
		t1 := time.Now()
		tr.record("vclock.sleep", "", uint64(i), t0, t1)
		overs = append(overs, us(t1.Sub(t0)-d/timeScale))
	}
	return quantile(overs, 0.99)
}

// measureArena times one lease lifecycle on an arena pool — acquire,
// pin, unpin, revoke — at the workload's payload sizes.
func measureArena(sizes []int, tr *tracer) float64 {
	pool := shm.NewArenaPool(256 << 20)
	var n int
	start := time.Now()
	for time.Since(start) < layerBudget/3 {
		t0 := time.Now()
		for _, size := range sizes[:256] {
			l, err := pool.Acquire(int64(size))
			if err != nil {
				panic(fmt.Sprintf("arena acquire %d: %v", size, err)) // budget fits one lease
			}
			_ = l.Retain() // the lease is live
			l.Release()
			pool.Revoke(l.ID())
			n++
		}
		tr.record("shm.lease", "", uint64(n), t0, time.Now())
	}
	return float64(time.Since(start)) / float64(n)
}
