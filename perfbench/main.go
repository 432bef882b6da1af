// Command perfbench is the repository's benchmark. It builds an in-process
// kaas.Platform served on 127.0.0.1, drives one workload against it,
// checks every reply, and prints its metrics: the end-to-end ones with
// --trace 0, the per-layer ones from a separate traced run with --trace 1.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload hot-warm --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"kaas"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// setups is how many times the untraced run builds its platform;
	// setup_s is the median.
	setups int
	// corruptEvery, when positive, makes the kernels return a wrong
	// output for every call whose x is a multiple of it once warm-up is
	// done (tests only).
	corruptEvery int64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: 9}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of each measured phase in seconds")
	traceLevel := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory for the traced run's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case !slices.Contains(workloadNames, cfg.workload):
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames, ", "))
		return 2
	case *traceLevel != 0 && *traceLevel != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceLevel)
		return 2
	case cfg.seconds <= 0 || cfg.seconds > 60:
		fmt.Fprintf(stderr, "perfbench: --seconds must be in (0, 60], got %g\n", cfg.seconds)
		return 2
	}
	cfg.trace = *traceLevel == 1
	return execute(&cfg, stdout, stderr)
}

// execute runs one configured benchmark and prints its result. It
// returns 1 when the run could not complete or its outputs were wrong.
func execute(cfg *config, stdout, stderr io.Writer) int {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	in, err := makeInputs(cfg.workload, cfg.seed, d+time.Second)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%t fingerprint=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, in.fingerprint)
	host, _ := json.Marshal(hostInfo())
	fmt.Fprintf(stdout, "host %s\n", host)

	var out *outcomeSet
	if cfg.trace {
		out, err = runTraced(cfg, in, d, stdout)
	} else {
		out, err = runUntraced(cfg, in, d, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, v := range out.violations {
		fmt.Fprintln(stderr, "perfbench: counter check failed:", v)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   out.correct(),
		Attempted: out.attempted(),
		Failed:    out.failed(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, m := range defs {
		v, ok := out.values[m.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", m.Name)
			return 1
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "  %-40s %16.6f %s\n", m.Name, v, m.Unit)
	}
	c := out.counts
	fmt.Fprintf(stdout, "outcomes: ok=%d aggressor_shed=%d other_shed=%d typed_error=%d untyped_error=%d mismatch=%d counter_checks_failed=%d\n",
		c[okCall], c[aggressorShed], c[shedCall], c[remoteErr], c[untypedErr], c[mismatch], len(out.violations))
	enc, err := json.Marshal(&line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct {
		fmt.Fprintln(stderr, "perfbench: outputs or counters were wrong")
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcomeSet accumulates the calls and checks of every phase of a run.
type outcomeSet struct {
	values     map[string]float64
	counts     [mismatch + 1]int // calls per outcome
	violations []string
}

func (o *outcomeSet) add(ph *phase) {
	for i, c := range ph.tally.counts {
		o.counts[i] += c
	}
	o.violations = append(o.violations, ph.violations...)
}

func (o *outcomeSet) attempted() int {
	n := 0
	for _, c := range o.counts {
		n += c
	}
	return n
}

// failed counts every call that did not succeed, except the sheds the
// tenant-mix aggressor is built to draw.
func (o *outcomeSet) failed() int {
	return o.attempted() - o.counts[okCall] - o.counts[aggressorShed]
}

// correct reports whether replies were checked and all were right, no
// error lacked a wire code, and every counter identity held.
func (o *outcomeSet) correct() bool {
	return o.counts[okCall] > 0 && o.counts[mismatch] == 0 && o.counts[untypedErr] == 0 && len(o.violations) == 0
}

func runUntraced(cfg *config, in *inputs, d time.Duration, stdout io.Writer) (*outcomeSet, error) {
	var (
		setups []float64
		e      *env
	)
	for i := 0; i < cfg.setups; i++ {
		// Each build starts from a collected heap, not from the garbage
		// of the build before it.
		runtime.GC()
		t0 := time.Now()
		built, err := newEnv(cfg, in, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			built.close()
		} else {
			e = built
		}
	}
	defer e.close()
	runtime.GC()
	ph := e.measure(tcpInvoker{e.clients}, d, nil, false)
	s := ph.summarize()
	fmt.Fprintf(stdout, "samples: %d ok calls (%d from victims) in %d windows of %v; %d setups; host CPU steal %.1f%%\n",
		s.ok, s.victims, windows, ph.span/windows, len(setups), 100*ph.steal)
	fmt.Fprintf(stdout, "  %-40s %16.6f ms (not gated; loadgen.latency_p99_ms in the traced run)\n", "latency_p99_ms", s.p99)
	fmt.Fprintf(stdout, "  %-40s %16.6f ms (not gated; loadgen.victim_p99_ms in the traced run)\n", "victim_p99_ms", s.victimP99)
	out := &outcomeSet{values: map[string]float64{
		"throughput_ips": s.thr,
		"latency_p50_ms": s.p50,
		"cpu_us_per_inv": s.cpuPerInv,
		"max_rss_mb":     maxRSSMB(),
		"setup_s":        median(setups),
	}}
	out.add(ph)
	return out, nil
}

// runTraced measures the workload untraced for half the run, then traced
// for half the run on a platform whose listener counts transport
// traffic, then in process for a quarter, then the single layers on
// their own, and reports the per-layer metrics. The whole traced run
// takes about as long as an untraced one.
func runTraced(cfg *config, in *inputs, d time.Duration, stdout io.Writer) (*outcomeSet, error) {
	e0, err := newEnv(cfg, in, false)
	if err != nil {
		return nil, err
	}
	ph0 := e0.measure(tcpInvoker{e0.clients}, d/2, nil, false)
	e0.close()

	tr := newTracer()
	e1, err := newEnv(cfg, in, true)
	if err != nil {
		return nil, err
	}
	ph1 := e1.measure(tcpInvoker{e1.clients}, d/2, tr, true)
	pc := e1.measure(coreInvoker{e1.p}, d/4, tr, true)
	e1.close()
	goroutines := settledGoroutines()

	micro := measureLayers(cfg, in, tr)
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeFile(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans: %d recorded, %d dropped, written to %s\n", len(tr.spans), tr.dropped, path)

	out := &outcomeSet{values: layerMetrics(cfg, ph0, ph1, pc, micro)}
	out.values["runtime.goroutines_after"] = float64(goroutines)
	out.add(ph0)
	out.add(ph1)
	out.add(pc)
	return out, nil
}

// settledGoroutines counts goroutines once closed platforms have had a
// moment to let their goroutines exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// phase is one measured window of calls.
type phase struct {
	span    time.Duration // the windows divide this
	elapsed time.Duration // until the last reply
	cpu     [windows + 1]time.Duration
	tally   tally
	keep    bool     // whether recs holds every call
	tenants bool     // whether calls come from several tenants
	recs    []record // the calls, when keep is set

	stats          serverDelta
	clientAttempts int64 // -1 when the calls bypassed the client
	client         kaas.ClientMetrics
	rt0, rt1       runtimeSample
	cpuTotal       time.Duration
	steal          float64  // share of the host's CPU time stolen by the hypervisor
	conn           [4]int64 // bytes in, bytes out, reads, writes
	violations     []string
}

// tally is what the end-to-end metrics need of a phase's calls: the
// latencies of successful calls per window, and calls per outcome.
type tally struct {
	lat, vlat [windows][]float32 // ms; vlat only for victims, when there are tenants
	counts    [mismatch + 1]int
}

// shard collects one load-generator worker's calls without locking.
type shard struct {
	tally tally
	recs  []record
}

func (ph *phase) collect(sh *shard, r record) {
	sh.tally.counts[r.out]++
	if r.out == okCall {
		w := ph.window(r.done)
		sh.tally.lat[w] = append(sh.tally.lat[w], float32(r.lat.ms()))
		if r.victim && ph.tenants {
			sh.tally.vlat[w] = append(sh.tally.vlat[w], float32(r.lat.ms()))
		}
	}
	if ph.keep {
		sh.recs = append(sh.recs, r)
	}
}

func (ph *phase) merge(sh *shard) {
	for w := range sh.tally.lat {
		ph.tally.lat[w] = append(ph.tally.lat[w], sh.tally.lat[w]...)
		ph.tally.vlat[w] = append(ph.tally.vlat[w], sh.tally.vlat[w]...)
	}
	for i, c := range sh.tally.counts {
		ph.tally.counts[i] += c
	}
	ph.recs = append(ph.recs, sh.recs...)
}

func (ph *phase) attempted() int {
	n := 0
	for _, c := range ph.tally.counts {
		n += c
	}
	return n
}

// measure drives the workload through inv for d and takes the deltas of
// every counter the phase reports. keep retains every call's record for
// the per-layer metrics.
func (e *env) measure(inv invoker, d time.Duration, tr *tracer, keep bool) *phase {
	ph := &phase{span: e.phaseSpan(d), keep: keep, tenants: e.cfg.workload == tenantMix}
	_, inProcess := inv.(coreInvoker)
	st0, cm0, conn0 := e.p.Stats(), e.clientMetrics(), e.connCounts()
	ph.rt0 = readRuntime()
	total0, steal0 := cpuTicks()
	start := time.Now()
	ph.cpu[0] = cpuTime()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k < windows; k++ {
			time.Sleep(time.Until(start.Add(ph.span * time.Duration(k) / windows)))
			ph.cpu[k] = cpuTime()
		}
	}()
	e.drive(context.Background(), inv, ph, start, tr)
	wg.Wait()
	ph.cpu[windows] = cpuTime()
	ph.elapsed = time.Since(start)
	ph.cpuTotal = ph.cpu[windows] - ph.cpu[0]
	ph.rt1 = readRuntime()
	total1, steal1 := cpuTicks()
	ph.steal = ratio(steal1-steal0, total1-total0)
	st1, cm1, conn1 := e.p.Stats(), e.clientMetrics(), e.connCounts()

	ph.stats = diffStats(st0, st1)
	ph.client = kaas.ClientMetrics{
		Attempts:     cm1.Attempts - cm0.Attempts,
		ConnErrors:   cm1.ConnErrors - cm0.ConnErrors,
		RemoteErrors: cm1.RemoteErrors - cm0.RemoteErrors,
	}
	ph.clientAttempts = int64(ph.client.Attempts)
	if inProcess {
		ph.clientAttempts = -1
	}
	for i := range ph.conn {
		ph.conn[i] = conn1[i] - conn0[i]
	}
	ph.violations = crossCheck(ph.stats, uint64(ph.attempted()), ph.clientAttempts)
	for i, v := range ph.violations {
		ph.violations[i] = fmt.Sprintf("%s phase: %s", inv.layer(), v)
	}
	return ph
}

func (e *env) clientMetrics() kaas.ClientMetrics {
	var sum kaas.ClientMetrics
	for _, c := range e.clients {
		m := c.Metrics()
		sum.Attempts += m.Attempts
		sum.ConnErrors += m.ConnErrors
		sum.RemoteErrors += m.RemoteErrors
	}
	return sum
}

func (e *env) connCounts() [4]int64 {
	if e.conns == nil {
		return [4]int64{}
	}
	return [4]int64{e.conns.bytesIn.Load(), e.conns.bytesOut.Load(), e.conns.reads.Load(), e.conns.writes.Load()}
}

// window maps a completion offset onto its window.
func (ph *phase) window(done usecs) int {
	w := int(int64(done) * windows / int64(ph.span/time.Microsecond))
	return min(max(w, 0), windows-1)
}

// summary is a phase's end-to-end metrics: each the median of its
// per-window values.
type summary struct {
	thr, p50, p99, victimP99, cpuPerInv float64
	ok, victims                         int
}

func (ph *phase) summarize() summary {
	var (
		s                        summary
		thr, p50, p99, vp99, cpu []float64
	)
	for w := 0; w < windows; w++ {
		lat, vlat := floats(ph.tally.lat[w]), floats(ph.tally.vlat[w])
		if !ph.tenants {
			// One tenant: every call is a victim's.
			vlat = lat
		}
		n := len(lat)
		s.ok += n
		s.victims += len(vlat)
		if n == 0 {
			continue
		}
		length := ph.span / windows
		if w == windows-1 {
			length = ph.elapsed - ph.span*(windows-1)/windows
		}
		thr = append(thr, float64(n)/length.Seconds())
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		if len(vlat) > 0 {
			vp99 = append(vp99, quantile(vlat, 0.99))
		}
		cpu = append(cpu, us(ph.cpu[w+1]-ph.cpu[w])/float64(n))
	}
	s.thr, s.p50, s.p99, s.victimP99, s.cpuPerInv = median(thr), median(p50), median(p99), median(vp99), median(cpu)
	return s
}

func floats(f32 []float32) []float64 {
	out := make([]float64, len(f32))
	for i, v := range f32 {
		out[i] = float64(v)
	}
	return out
}

// hostInfo is the metadata printed with every result: numbers from
// different hosts are not comparable.
func hostInfo() map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     commit,
		"time_scale": timeScale,
	}
}

// cpuTicks reads the host's total and stolen CPU ticks from /proc/stat,
// or zeros where it is unavailable. Steal is time the hypervisor gave
// this machine's CPUs to other guests; runs with much of it are slower
// and not comparable with quiet ones.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, v := range f[1:9] {
		n, _ := strconv.ParseFloat(v, 64) // a malformed field counts as 0
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
