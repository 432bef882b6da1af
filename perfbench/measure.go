package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kaas"
)

// quantile returns the q-quantile of vals by linear interpolation between
// closest ranks; zero for an empty sample. vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// ratio returns a/b, or zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rusage reads the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user+system CPU time so far. Client and server
// share the process, so it covers both ends of every call.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// runtimeSample holds the Go runtime counters the runtime.* metrics use.
type runtimeSample struct {
	allocBytes, allocObjects float64
	gcCPU                    float64 // seconds, estimated by the runtime
	mutexWait                float64 // seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{allocBytes: v[0], allocObjects: v[1], gcCPU: v[2], mutexWait: v[3]}
}

// connCounters counts the server side of every accepted connection.
type connCounters struct {
	bytesIn, bytesOut, reads, writes atomic.Int64
}

// countingListener wraps the platform's listener so the transport layer's
// bytes and syscalls per invocation can be read without touching the
// program. It is only installed for the traced run.
type countingListener struct {
	net.Listener
	c *connCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

// serverDelta is the change of the server's counters over one measured
// window: every server-side number the benchmark reports comes from the
// difference of two Stats snapshots, never from cumulative totals.
type serverDelta struct {
	admitted, shed                        uint64
	tenantAdmitted, tenantShed            map[string]uint64
	prewarms, reaps, evictions            int64
	cacheHits, cacheMisses                uint64
	batchDispatches, batchedInvocations   uint64
	oobInvocations                        uint64
	leaseGrants, leaseReuses, revocations uint64
	activeLeases                          int
	computeBusy, busyUptime, slotBusy     time.Duration
}

func diffStats(a, b kaas.Stats) serverDelta {
	d := serverDelta{
		tenantAdmitted: make(map[string]uint64),
		tenantShed:     make(map[string]uint64),
	}
	for name, kb := range b.PerKernel {
		ka := a.PerKernel[name]
		d.admitted += kb.Invocations - ka.Invocations
	}
	d.shed = b.Shed - a.Shed
	for name, tb := range b.PerTenant {
		ta := a.PerTenant[name]
		d.tenantAdmitted[name] = tb.Admitted - ta.Admitted
		d.tenantShed[name] = tb.Shed - ta.Shed
	}
	d.prewarms = int64(b.PreWarms - a.PreWarms)
	d.reaps = int64(b.Reaps - a.Reaps)
	d.evictions = int64(b.Evictions - a.Evictions)
	if a.ArtifactCache != nil && b.ArtifactCache != nil {
		d.cacheHits = b.ArtifactCache.Hits - a.ArtifactCache.Hits
		d.cacheMisses = b.ArtifactCache.Misses - a.ArtifactCache.Misses
	}
	dpa, dpb := a.DataPlane, b.DataPlane
	d.batchDispatches = dpb.BatchDispatches - dpa.BatchDispatches
	d.batchedInvocations = dpb.BatchedInvocations - dpa.BatchedInvocations
	d.oobInvocations = dpb.OOBInvocations - dpa.OOBInvocations
	d.leaseGrants = dpb.LeaseGrants - dpa.LeaseGrants
	d.leaseReuses = dpb.LeaseReuses - dpa.LeaseReuses
	d.revocations = dpb.LeaseRevocations - dpa.LeaseRevocations
	d.activeLeases = dpb.ActiveLeases - dpa.ActiveLeases
	for id, db := range b.PerDevice {
		if db.Kind != kaas.GPU.String() {
			continue
		}
		da := a.PerDevice[id]
		busy := db.ComputeBusy - da.ComputeBusy
		d.slotBusy += db.SlotBusy - da.SlotBusy
		if busy > 0 {
			d.computeBusy += busy
			d.busyUptime += db.Uptime - da.Uptime
		}
	}
	return d
}

// crossCheck returns every counter identity the window violates.
// clientAttempts < 0 means the calls bypassed the client (in process).
func crossCheck(d serverDelta, attempted uint64, clientAttempts int64) []string {
	var bad []string
	if clientAttempts >= 0 && uint64(clientAttempts) != d.admitted+d.shed {
		bad = append(bad, fmt.Sprintf("client attempts %d != server admitted %d + shed %d",
			clientAttempts, d.admitted, d.shed))
	}
	var perTenant uint64
	for _, n := range d.tenantAdmitted {
		perTenant += n
	}
	if perTenant != d.admitted {
		bad = append(bad, fmt.Sprintf("per-tenant admitted %d != admitted %d", perTenant, d.admitted))
	}
	if d.admitted+d.shed != attempted {
		bad = append(bad, fmt.Sprintf("admitted %d + shed %d != attempted %d", d.admitted, d.shed, attempted))
	}
	if d.batchedInvocations > d.admitted {
		bad = append(bad, fmt.Sprintf("batched %d > invoked %d", d.batchedInvocations, d.admitted))
	}
	if int64(d.leaseGrants)-int64(d.revocations) != int64(d.activeLeases) {
		bad = append(bad, fmt.Sprintf("lease grants %d - revocations %d != active lease change %d",
			d.leaseGrants, d.revocations, d.activeLeases))
	}
	return bad
}

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one request share Req; Parent names the layer
// whose span caused this one ("" for a root).
type span struct {
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted as
// dropped rather than grown without limit.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 4096)}
}

func (t *tracer) record(layer, parent string, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Layer: layer, Parent: parent, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
