package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kaas"
	"kaas/internal/client"
	"kaas/internal/scenario"
)

const (
	// timeScale is modeled seconds per wall second, as in the repo's
	// existing transport and data-plane sweeps.
	timeScale = 2000
	// windows splits every measured phase; each end-to-end metric is the
	// median of its per-window values, so one scheduler hiccup on a
	// shared host moves one window, not the result.
	windows = 20
	// xTableLen is the length of the seeded table of per-call inputs.
	xTableLen = 1 << 16
	// spanEvery samples the calls whose spans a traced run keeps.
	spanEvery = 8
)

// Workload names.
const (
	hotWarm   = "hot-warm"
	tenantMix = "tenant-mix"
	bulkData  = "bulk-data"
)

var workloadNames = []string{hotWarm, tenantMix, bulkData}

// tenant-mix shape.
const (
	aggressor = "aggressor"
	// mixRate is the Poisson arrival rate before the bursty kernel's off
	// phases are cut out; about 6k calls/s remain, which keeps a 2-CPU
	// host about half busy.
	mixRate = 7050.0
	// heavyWork keeps the GPUs about 72% busy in modeled time at the
	// heavy kernel's share of mixRate. Nearer 80%, the processor-sharing
	// queues on the GPUs swing the number of calls in flight so far that
	// runs flip between regimes and victims get shed.
	heavyWork = 8.0e12
	// The bursty kernel is called only during the first burstOn of every
	// burstPeriod (wall time); the rest of the period is longer than the
	// keep-alive, so its runners scale to zero between bursts.
	burstPeriod = 400 * time.Millisecond
	burstOn     = 100 * time.Millisecond
)

// bulk-data shape.
const (
	bulkWorkers = 16 // half over the leasing client, half in-band
	minPayload  = 4 << 10
	maxPayload  = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// outcome classifies one call.
type outcome uint8

const (
	okCall outcome = iota
	// aggressorShed is an OVERLOADED reply to the tenant-mix aggressor:
	// the shedding the workload is built to cause, checked to land on
	// the aggressor. Every other non-ok outcome is a failure.
	aggressorShed
	shedCall   // OVERLOADED to any other caller
	remoteErr  // any other typed error
	untypedErr // an error without a wire code
	mismatch   // a reply whose output is wrong
)

// request is one call the load generator makes.
type request struct {
	id     uint64
	tenant string
	kernel string
	x      float64
	size   int // payload bytes; 0 for none
	path   int // client index: 0 (leasing on bulk-data) or 1 (in-band)
	lag    time.Duration
}

// record is the measured result of one call, kept small because a run
// holds one per call.
type record struct {
	done   usecs // completion, from phase start
	lat    usecs // wall latency, from the due time in the open loop
	lag    usecs // how late the generator fired the call
	server usecs // modeled server time
	queue  usecs // modeled admission queueing (in process only)
	exec   usecs // modeled device execution (in process only)
	copy   usecs // modeled host/device copies (in process only)
	tenant uint8 // index into tenants
	out    outcome
	path   uint8
	victim bool // not from the tenant-mix aggressor
	cold   bool
	cached bool
}

// usecs is a duration in whole microseconds.
type usecs int32

func toUsecs(d time.Duration) usecs { return usecs(d / time.Microsecond) }
func (u usecs) ms() float64         { return float64(u) / 1e3 }
func (u usecs) us() float64         { return float64(u) }

// tenants lists the tenant names calls use ("" is the default tenant).
var tenants = []string{"", aggressor, "victim-a", "victim-b"}

func tenantIndex(name string) uint8 {
	for i, t := range tenants {
		if t == name {
			return uint8(i)
		}
	}
	panic("unknown tenant " + name) // requests only use the names above
}

// inputs is everything a workload draws from its seed.
type inputs struct {
	xs          []float64      // per-call x values
	sizes       []int          // bulk-data payload sizes
	payloads    [][]byte       // bulk-data: each worker's payload source
	trace       scenario.Trace // tenant-mix arrivals
	due         []time.Duration
	fingerprint string
}

func makeInputs(workload string, seed int64, span time.Duration) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{xs: make([]float64, xTableLen)}
	for i := range in.xs {
		in.xs[i] = float64(rng.Int63n(1 << 40))
	}
	var fp scenario.Trace
	switch workload {
	case hotWarm:
		fp = make(scenario.Trace, len(in.xs))
		for i, x := range in.xs {
			fp[i] = scenario.Event{Kernel: "affine", N: x}
		}
	case bulkData:
		in.sizes = make([]int, 4096)
		fp = make(scenario.Trace, len(in.sizes))
		for i := range in.sizes {
			in.sizes[i] = int(minPayload * math.Exp(rng.Float64()*math.Log(maxPayload/minPayload)))
			fp[i] = scenario.Event{Kernel: "echo", Payload: in.sizes[i]}
		}
		in.payloads = make([][]byte, bulkWorkers)
		for w := range in.payloads {
			in.payloads[w] = make([]byte, maxPayload)
			rng.Read(in.payloads[w])
		}
	case tenantMix:
		trace, err := tenantMixTrace(seed, span)
		if err != nil {
			return nil, err
		}
		for i := range trace {
			trace[i].N = in.xs[i%len(in.xs)]
		}
		in.trace = trace
		in.due = make([]time.Duration, len(trace))
		for i, ev := range trace {
			in.due[i] = ev.At / timeScale
		}
		fp = trace
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	in.fingerprint = fp.Fingerprint()
	return in, nil
}

// tenantMixShares says who calls what, as shares of the arrivals before
// the bursty kernel's off phases are cut out: the aggressor sends 70%,
// each victim 15%, all with the same kernel mix.
var tenantMixShares = func() []scenario.KernelMix {
	var mix []scenario.KernelMix
	for _, t := range []struct {
		name  string
		share float64
	}{{aggressor, 0.70}, {"victim-a", 0.15}, {"victim-b", 0.15}} {
		for _, k := range []struct {
			name  string
			share float64
		}{{"light", 0.72}, {"heavy", 0.08}, {"bursty", 0.20}} {
			mix = append(mix, scenario.KernelMix{Tenant: t.name, Kernel: k.name, Weight: t.share * k.share})
		}
	}
	return mix
}()

// tenantMixTrace synthesizes the tenant-mix arrivals: Poisson at mixRate
// over tenantMixShares, with the bursty kernel's calls outside its on
// phases dropped. Offsets are modeled time.
func tenantMixTrace(seed int64, span time.Duration) (scenario.Trace, error) {
	spec := scenario.TraceSpec{
		Events: int(mixRate * span.Seconds()),
		Arrivals: scenario.ArrivalSpec{
			Kind: "poisson",
			Mean: time.Duration(math.Round(float64(time.Second) * timeScale / mixRate)),
		},
		Mix: tenantMixShares,
	}
	full, err := scenario.Synthesize(spec, seed)
	if err != nil {
		return nil, err
	}
	trace := full[:0]
	for _, ev := range full {
		if ev.Kernel == "bursty" && (ev.At/timeScale)%burstPeriod >= burstOn {
			continue
		}
		trace = append(trace, ev)
	}
	return trace, nil
}

// env is one built platform with its clients.
type env struct {
	cfg     *config
	in      *inputs
	p       *kaas.Platform
	clients []*kaas.Client
	conns   *connCounters // nil unless the listener counts
}

func platformOptions(workload string) []kaas.Option {
	opts := []kaas.Option{
		kaas.WithTimeScale(timeScale),
		kaas.WithAccelerators(kaas.TeslaP100, kaas.TeslaP100, kaas.TeslaP100, kaas.TeslaP100),
	}
	switch workload {
	case hotWarm:
		return append(opts,
			kaas.WithClientMux(2),
			kaas.WithoutFairQueueing(),
			kaas.WithMaxInFlight(32))
	case tenantMix:
		return append(opts,
			kaas.WithClientMux(2),
			kaas.WithMaxInFlight(4),
			kaas.WithTenantWeights(map[string]float64{aggressor: 1, "victim-a": 1, "victim-b": 1}),
			// The aggressor's outstanding calls overrun 12 + 40 when a
			// host stall bunches its arrivals; a victim's, at 3/14 of
			// the rate, stay below.
			kaas.WithTenantLimits(12, 40),
			kaas.WithKeepAlive(150*time.Millisecond*timeScale, 25*time.Millisecond*timeScale),
			kaas.WithPreWarm(50*time.Millisecond*timeScale),
			kaas.WithArtifactCache(64<<20),
			kaas.WithBatching(50*time.Microsecond*timeScale, 8))
	default: // bulk-data
		return append(opts,
			kaas.WithClientMux(1),
			kaas.WithOutOfBand(256<<20))
	}
}

func workloadKernels(workload string, c *corruption) []kaas.Kernel {
	switch workload {
	case hotWarm:
		return []kaas.Kernel{&affineKernel{name: "affine", work: lightWork, corrupt: c}}
	case tenantMix:
		return []kaas.Kernel{
			&affineKernel{name: "light", work: lightWork, corrupt: c},
			&affineKernel{name: "heavy", work: heavyWork, corrupt: c},
			&affineKernel{name: "bursty", work: lightWork, corrupt: c},
		}
	default:
		return []kaas.Kernel{&echoKernel{corrupt: c}}
	}
}

// newEnv builds, registers and warms a platform: the work setup_s times.
// counted installs the transport-counting listener.
func newEnv(cfg *config, in *inputs, counted bool) (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, in: in}
	var l net.Listener = ln
	if counted {
		e.conns = &connCounters{}
		l = countingListener{Listener: ln, c: e.conns}
	}
	e.p, err = kaas.New(append(platformOptions(cfg.workload), kaas.WithListener(l))...)
	if err != nil {
		ln.Close()
		return nil, err
	}
	var corrupt *corruption
	if cfg.corruptEvery > 0 {
		corrupt = &corruption{every: cfg.corruptEvery}
	}
	for _, k := range workloadKernels(cfg.workload, corrupt) {
		if err := e.p.Register(k); err != nil {
			e.close()
			return nil, fmt.Errorf("register %s: %w", k.Name(), err)
		}
	}
	main, err := e.p.NewClient()
	if err != nil {
		e.close()
		return nil, err
	}
	e.clients = append(e.clients, main)
	if cfg.workload == bulkData {
		// The in-band path: a plain mux client without the arena.
		e.clients = append(e.clients, client.Dial(e.p.Addr(), client.WithMux(1)))
	}
	if err := e.warm(); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if corrupt != nil {
		corrupt.armed.Store(true)
	}
	return e, nil
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.p.Close()
}

// warm runs every kind of call the workload makes until runners,
// connections and leases exist, outside any measured window.
func (e *env) warm() error {
	var reqs []request
	conc := 4
	switch e.cfg.workload {
	case hotWarm:
		conc = 64
		for i := 0; i < 2048; i++ {
			reqs = append(reqs, e.request(uint64(i), 0))
		}
	case tenantMix:
		for i := 0; i < 8; i++ {
			for _, t := range tenants[1:] {
				for _, k := range []string{"light", "heavy", "bursty"} {
					reqs = append(reqs, request{tenant: t, kernel: k, x: e.in.xs[len(reqs)]})
				}
			}
		}
	case bulkData:
		// Every size class on every stream of both paths, the same for
		// every seed.
		conc = bulkWorkers
		for size := minPayload; size <= maxPayload; size *= 2 {
			for w := 0; w < bulkWorkers; w++ {
				r := e.request(uint64(len(reqs)), w)
				r.size = size
				reqs = append(reqs, r)
			}
		}
	}
	inv := tcpInvoker{e.clients}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		mu    sync.Mutex
		first error
	)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := e.payloadBuffer(w)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if rec := e.call(context.Background(), inv, &r, buf, time.Now(), time.Now(), nil); rec.out != okCall {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("%s call %d for %s: outcome %d", r.kernel, i, r.tenant, rec.out)
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// request builds call i (for worker w of a closed loop).
func (in *inputs) request(workload string, i uint64, w int) request {
	switch workload {
	case bulkData:
		path := 0
		if w >= bulkWorkers/2 {
			path = 1
		}
		return request{id: i, kernel: "echo", x: float64(i), size: in.sizes[i%uint64(len(in.sizes))], path: path}
	case tenantMix:
		ev := in.trace[i]
		return request{id: i, tenant: ev.Tenant, kernel: ev.Kernel, x: ev.N}
	default:
		return request{id: i, kernel: "affine", x: in.xs[i%xTableLen]}
	}
}

func (e *env) request(i uint64, w int) request { return e.in.request(e.cfg.workload, i, w) }

// payloadBuffer returns worker w's payload source (bulk-data only). A
// worker stamps each call's id into it, so no two workers share one.
func (e *env) payloadBuffer(w int) []byte {
	if e.in.payloads == nil {
		return nil
	}
	return e.in.payloads[w]
}

// reply is what one call returned.
type reply struct {
	values            map[string]float64
	data              []byte
	server            time.Duration
	cold, cached      bool
	queue, exec, copy time.Duration
}

// invoker is the layer a phase drives: the TCP clients or the platform
// in process.
type invoker interface {
	invoke(ctx context.Context, r *request, data []byte) (reply, error)
	layer() string
}

type tcpInvoker struct{ clients []*kaas.Client }

func (t tcpInvoker) layer() string { return "client" }

func (t tcpInvoker) invoke(ctx context.Context, r *request, data []byte) (reply, error) {
	res, err := t.clients[r.path].InvokeTenantContext(ctx, r.tenant, r.kernel, kaas.Params{"x": r.x}, data)
	if err != nil {
		return reply{}, err
	}
	return reply{values: res.Values, data: res.Data, server: res.ServerTime, cold: res.Cold, cached: res.CachedCold}, nil
}

type coreInvoker struct{ p *kaas.Platform }

func (c coreInvoker) layer() string { return "core" }

func (c coreInvoker) invoke(ctx context.Context, r *request, data []byte) (reply, error) {
	resp, rep, err := c.p.InvokeTenant(ctx, r.tenant, r.kernel, kaas.Params{"x": r.x}, data)
	if err != nil {
		return reply{}, err
	}
	b := rep.Breakdown
	return reply{values: resp.Values, data: resp.Data, server: rep.Total(), cold: rep.Cold, cached: rep.CachedCold,
		queue: b.Queue, exec: b.Exec, copy: b.CopyIn + b.CopyOut}, nil
}

// call makes one call and checks its reply. due is when the call was
// due; fired is when the generator sent it.
func (e *env) call(ctx context.Context, inv invoker, r *request, buf []byte, due, fired time.Time, tr *tracer) record {
	var (
		data []byte
		sum  uint32
	)
	if r.size > 0 {
		data = buf[:r.size]
		binary.LittleEndian.PutUint64(data, r.id)
		sum = crc32.Checksum(data, castagnoli)
	}
	t0 := time.Now()
	rep, err := inv.invoke(ctx, r, data)
	t1 := time.Now()
	if r.id%spanEvery == 0 {
		tr.record("loadgen", "", r.id, due, t1)
		tr.record(inv.layer(), "loadgen", r.id, t0, t1)
	}

	rec := record{lat: toUsecs(t1.Sub(due)), lag: toUsecs(fired.Sub(due)), tenant: tenantIndex(r.tenant), path: uint8(r.path), victim: r.tenant != aggressor}
	if err != nil {
		rec.out = classify(err, r.tenant)
		return rec
	}
	rec.server, rec.queue, rec.exec, rec.copy = toUsecs(rep.server), toUsecs(rep.queue), toUsecs(rep.exec), toUsecs(rep.copy)
	rec.cold, rec.cached = rep.cold, rep.cached
	good := rep.values["x"] == r.x
	if r.size > 0 {
		good = good && len(rep.data) == r.size && crc32.Checksum(rep.data, castagnoli) == sum
	} else {
		good = good && rep.values["y"] == 2*r.x+1
	}
	if !good {
		rec.out = mismatch
	}
	return rec
}

// classify maps a call error onto an outcome. Typed failures carry a
// wire code (over TCP) or wrap one of the platform's typed errors (in
// process); anything else is untyped.
func classify(err error, tenant string) outcome {
	overloaded := errors.Is(err, kaas.ErrOverloaded)
	var re *kaas.RemoteError
	typed := errors.As(err, &re)
	if typed && re.Code == kaas.CodeOverloaded {
		overloaded = true
	}
	switch {
	case overloaded && tenant == aggressor:
		return aggressorShed
	case overloaded:
		return shedCall
	case typed, errors.Is(err, kaas.ErrUnavailable), errors.Is(err, kaas.ErrDraining):
		return remoteErr
	default:
		return untypedErr
	}
}

// closedLoop keeps workers calls outstanding until the phase's span has
// passed, then waits for the outstanding calls.
func (e *env) closedLoop(ctx context.Context, inv invoker, workers int, ph *phase, start time.Time, tr *tracer) {
	deadline := start.Add(ph.span)
	var next atomic.Uint64
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := e.payloadBuffer(w)
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				r := e.request(next.Add(1)-1, w)
				rec := e.call(ctx, inv, &r, buf, now, now, tr)
				rec.done = toUsecs(time.Since(start))
				ph.collect(&shards[w], rec)
			}
		}(w)
	}
	wg.Wait()
	for i := range shards {
		ph.merge(&shards[i])
	}
}

// openLoop fires the trace's calls at their due times, every call that
// is due on each wake-up, without waiting for replies; calls due after
// the phase's span are not sent.
func (e *env) openLoop(ctx context.Context, inv invoker, ph *phase, start time.Time, tr *tracer) {
	n := 0
	for n < len(e.in.due) && e.in.due[n] <= ph.span {
		n++
	}
	recs := make([]record, n)
	var wg sync.WaitGroup
	for i := 0; i < n; {
		now := time.Since(start)
		for ; i < n && e.in.due[i] <= now; i++ {
			r := e.request(uint64(i), 0)
			r.lag = now - e.in.due[i]
			wg.Add(1)
			go func(i int, r request) {
				defer wg.Done()
				due := start.Add(e.in.due[i])
				rec := e.call(ctx, inv, &r, nil, due, due.Add(r.lag), tr)
				rec.done = toUsecs(time.Since(start))
				recs[i] = rec
			}(i, r)
		}
		if i < n {
			time.Sleep(e.in.due[i] - time.Since(start))
		}
	}
	wg.Wait()
	var sh shard
	for _, r := range recs {
		ph.collect(&sh, r)
	}
	ph.merge(&sh)
}

// phaseSpan is the measured span of a phase of length d: the arrival
// schedule's extent in the open loop, d in a closed loop.
func (e *env) phaseSpan(d time.Duration) time.Duration {
	if e.cfg.workload != tenantMix {
		return d
	}
	var last time.Duration
	for _, due := range e.in.due {
		if due > d {
			break
		}
		last = due
	}
	return last
}

// drive runs the workload's load generator for the phase through inv.
func (e *env) drive(ctx context.Context, inv invoker, ph *phase, start time.Time, tr *tracer) {
	switch e.cfg.workload {
	case hotWarm:
		e.closedLoop(ctx, inv, 64, ph, start, tr)
	case bulkData:
		e.closedLoop(ctx, inv, bulkWorkers, ph, start, tr)
	default:
		e.openLoop(ctx, inv, ph, start, tr)
	}
}
