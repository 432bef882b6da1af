// Package vclock provides scaled virtual clocks for accelerator simulation.
//
// The KaaS accelerator simulators express costs in modeled time (the time
// scale of the paper's hardware: hundreds of milliseconds of CUDA context
// creation, seconds of kernel execution). Running experiments at that scale
// would take hours, so the runtime executes against a Clock that maps
// modeled durations onto a scaled-down wall clock. A scale of 1000 means
// one modeled second passes in one wall millisecond.
//
// All components of the runtime take a Clock so that tests can use a large
// scale factor for speed, and so the server can run in real time when
// deployed as an actual service.
//
// At high scale factors a scaled clock's timers must fire within tens of
// microseconds of their wall deadline, or modeled durations stretch by
// tenths of a second (50 µs of wall time is 0.1 s modeled at scale
// 2000). The Go runtime's own timers are not that precise on an idle
// process (it sleeps in the netpoller with millisecond granularity),
// and spinning toward every deadline would burn the processor the
// serving path needs. So each scaled clock runs one timer dispatcher
// that parks on an alarm until a short window before the earliest
// deadline and spins only through that window. On Linux the alarm is a
// timerfd read through the netpoller with a read deadline at the same
// instant: the timerfd wakes an idle process, the runtime timer behind
// the deadline wakes a busy one. Other platforms park on a runtime
// timer and spin through a wider window.
package vclock

import (
	"runtime"
	"sync"
	"time"
)

// Clock is the time source used by the KaaS runtime and the device
// simulators. Now and Sleep operate in modeled time.
type Clock interface {
	// Now returns the current modeled time.
	Now() time.Time

	// Sleep blocks for the given modeled duration.
	Sleep(d time.Duration)

	// AfterFunc calls f in its own goroutine after the given modeled
	// duration. The returned Timer can be used to cancel the call.
	AfterFunc(d time.Duration, f func()) Timer

	// Scale returns the number of modeled seconds that pass per wall
	// second. A real-time clock returns 1.
	Scale() float64
}

// Timer is a handle to a pending AfterFunc call.
type Timer interface {
	// Stop prevents the timer from firing. It reports whether the call
	// was stopped before it ran.
	Stop() bool
}

// Real returns a Clock backed directly by the wall clock (scale 1).
func Real() Clock { return realClock{} }

type realClock struct{}

var _ Clock = realClock{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }
func (realClock) Scale() float64        { return 1 }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return stdTimer{t: time.AfterFunc(d, f)}
}

type stdTimer struct{ t *time.Timer }

func (s stdTimer) Stop() bool { return s.t.Stop() }

// Scaled returns a Clock whose modeled time runs scale times faster than
// the wall clock. Modeled time starts at the wall time of creation so that
// timestamps remain recognizable. A scale of 1000 turns a modeled second
// into a wall millisecond.
func Scaled(scale float64) Clock {
	if scale <= 0 {
		scale = 1
	}
	return &scaledClock{
		scale: scale,
		epoch: time.Now(),
	}
}

type scaledClock struct {
	scale float64
	epoch time.Time

	// Pending AfterFunc timers, dispatched by a single goroutine per
	// clock: one dispatcher watching the earliest deadline costs far
	// less than a goroutine per timer, which matters under load — the
	// scheduling engines re-arm a timer on every job arrival and
	// completion.
	mu      sync.Mutex
	timers  timerHeap
	running bool
	// alarm is the dispatcher's wait, opened when it first parks and
	// kept for the clock's lifetime (its file descriptor, if any, is
	// closed by the os.File finalizer once the clock is unreachable).
	alarm alarm
	// parked is the head timer the dispatcher is parked toward, nil
	// while it is running callbacks or spinning.
	parked *wheelTimer
}

var _ Clock = (*scaledClock)(nil)

func (c *scaledClock) Now() time.Time {
	wall := time.Since(c.epoch)
	return c.epoch.Add(time.Duration(float64(wall) * c.scale))
}

// Sleep parks on the clock's own timer wheel, so it wakes as precisely
// as an AfterFunc callback fires. Sleeps no longer than the spin window
// just spin: parking would cost more than it saves.
func (c *scaledClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if w := c.toWall(d); w <= spinThreshold {
		spinUntil(time.Now().Add(w))
		return
	}
	done := make(chan struct{})
	c.AfterFunc(d, func() { close(done) })
	<-done
}

// spinUntil yields the processor until the wall deadline passes.
func spinUntil(deadline time.Time) {
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// AfterFunc registers the callback on the clock's timer wheel. All of a
// clock's pending timers share one dispatcher goroutine (see dispatch),
// which parks on an alarm until spinThreshold before the earliest
// deadline and spins across that last stretch, so callbacks fire within
// tens of microseconds of their wall deadline without a goroutine or a
// spinning processor per timer. Callbacks run sequentially on the dispatcher
// goroutine (never on the caller's), so they must not block for long.
func (c *scaledClock) AfterFunc(d time.Duration, f func()) Timer {
	t := &wheelTimer{
		c:        c,
		deadline: time.Now().Add(c.toWall(d)),
		f:        f,
	}
	var poke alarm
	c.mu.Lock()
	c.timers.push(t)
	if !c.running {
		c.running = true
		go c.dispatch()
	} else if c.parked != nil && t.deadline.Before(c.parked.deadline) {
		// A new earliest deadline: wake the dispatcher so it re-arms
		// for it instead of oversleeping.
		c.parked = nil
		poke = c.alarm
	}
	c.mu.Unlock()
	if poke != nil {
		poke.poke()
	}
	return t
}

// dispatch runs a clock's due timers until none are pending.
//
// Between deadlines it parks in alarm.wait until spinThreshold before
// the earliest one, then spins with runtime.Gosched through the rest.
// The spin absorbs the alarm's wake-up latency, which at high scale
// factors would otherwise inflate modeled durations; keeping it short
// keeps the dispatcher from taking processor time the serving path
// needs. The alarm is armed under c.mu before parked is published, so
// a poke — which a caller sends only after seeing parked — always
// lands after the arming and cannot be lost.
func (c *scaledClock) dispatch() {
	var due []*wheelTimer
	for {
		due = due[:0]
		c.mu.Lock()
		c.parked = nil
		now := time.Now()
		for len(c.timers) > 0 {
			t := c.timers[0]
			if t.stopped {
				c.timers.pop()
				continue
			}
			if t.deadline.After(now) {
				break
			}
			t.fired = true
			c.timers.pop()
			due = append(due, t)
		}
		if len(due) > 0 {
			c.mu.Unlock()
			for _, t := range due {
				t.f()
			}
			continue
		}
		if len(c.timers) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		head := c.timers[0]
		if head.deadline.Sub(now) <= spinThreshold {
			c.mu.Unlock()
			runtime.Gosched()
			continue
		}
		if c.alarm == nil {
			c.alarm = newAlarm()
		}
		a := c.alarm
		a.arm(head.deadline.Add(-spinThreshold))
		c.parked = head
		c.mu.Unlock()
		a.wait()
	}
}

// wheelTimer is one pending AfterFunc registration on a scaled clock.
// Stopped entries stay in the heap and are discarded when they surface
// at the top — cheaper than mid-heap removal under the engines'
// constant re-arming.
type wheelTimer struct {
	c        *scaledClock
	deadline time.Time
	f        func()
	stopped  bool // guarded by c.mu
	fired    bool // guarded by c.mu
}

func (t *wheelTimer) Stop() bool {
	c := t.c
	var poke alarm
	c.mu.Lock()
	if t.stopped || t.fired {
		c.mu.Unlock()
		return false
	}
	// Marked only: the dispatcher discards stopped entries when they
	// surface at the top of the heap.
	t.stopped = true
	if c.parked == t {
		// The dispatcher is parked toward this timer's deadline; wake
		// it so it re-reads the heap (and exits if nothing is left)
		// instead of holding its goroutine until the stale deadline.
		c.parked = nil
		poke = c.alarm
	}
	c.mu.Unlock()
	if poke != nil {
		poke.poke()
	}
	return true
}

// alarm is the scaled-clock dispatcher's parked wait. arm and wait are
// called by the dispatcher only; poke may be called from any goroutine.
type alarm interface {
	// arm sets the wall time the next wait returns at. It must be
	// called before the dispatcher publishes itself as parked.
	arm(at time.Time)
	// wait blocks until the armed time or a poke after the arming,
	// whichever is first. It may return early.
	wait()
	// poke makes the current or next wait return now.
	poke()
}

// timerAlarm is the portable alarm: a runtime timer raced against a
// poke channel. The runtime timer can wake late by a millisecond or
// more on a loaded host, so it is paired with a wider spin window.
type timerAlarm struct {
	at   time.Time
	wake chan struct{}
}

func newTimerAlarm() *timerAlarm {
	return &timerAlarm{wake: make(chan struct{}, 1)}
}

func (a *timerAlarm) arm(at time.Time) { a.at = at }

func (a *timerAlarm) wait() {
	timer := time.NewTimer(time.Until(a.at))
	select {
	case <-timer.C:
	case <-a.wake:
		timer.Stop()
	}
}

func (a *timerAlarm) poke() {
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// timerHeap is a min-heap of pending timers ordered by wall deadline.
type timerHeap []*wheelTimer

func (h *timerHeap) push(t *wheelTimer) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].deadline.Before((*h)[parent].deadline) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// pop removes the earliest timer.
func (h *timerHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	(*h)[n] = nil
	*h = (*h)[:n]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && (*h)[left].deadline.Before((*h)[smallest].deadline) {
			smallest = left
		}
		if right < n && (*h)[right].deadline.Before((*h)[smallest].deadline) {
			smallest = right
		}
		if smallest == i {
			return
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
}

func (c *scaledClock) Scale() float64 { return c.scale }

func (c *scaledClock) toWall(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	w := time.Duration(float64(d) / c.scale)
	if w <= 0 {
		w = time.Nanosecond
	}
	return w
}

// Manual is a Clock driven entirely by explicit Advance calls, for
// deterministic tests. Sleep blocks until enough virtual time has been
// advanced by another goroutine.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
}

type manualWaiter struct {
	deadline time.Time
	fire     func()        // non-nil for AfterFunc waiters
	ch       chan struct{} // non-nil for Sleep waiters
	stopped  bool
}

var _ Clock = (*Manual)(nil)

// NewManual returns a Manual clock starting at the given time.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now returns the current manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Scale reports 0 to indicate that manual time is not tied to wall time.
func (m *Manual) Scale() float64 { return 0 }

// Sleep blocks until Advance has moved the clock d past the current time.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	w := &manualWaiter{deadline: m.now.Add(d), ch: make(chan struct{})}
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()
	<-w.ch
}

// AfterFunc schedules f to run when the clock has advanced past d.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{deadline: m.now.Add(d), fire: f}
	if d <= 0 {
		go f()
		w.stopped = true
		return manualTimer{m: m, w: w}
	}
	m.waiters = append(m.waiters, w)
	return manualTimer{m: m, w: w}
}

type manualTimer struct {
	m *Manual
	w *manualWaiter
}

func (t manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if t.w.stopped {
		return false
	}
	t.w.stopped = true
	return true
}

// Advance moves the clock forward by d, releasing any sleepers and firing
// any timers whose deadlines are reached.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	var due []*manualWaiter
	remaining := m.waiters[:0]
	for _, w := range m.waiters {
		switch {
		case w.stopped:
			// drop
		case !w.deadline.After(m.now):
			due = append(due, w)
		default:
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()

	for _, w := range due {
		if w.ch != nil {
			close(w.ch)
		}
		if w.fire != nil {
			w.fire()
		}
	}
}
