package vclock

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked waits until c's dispatcher is parked toward head.
func waitParked(t *testing.T, c *scaledClock, head Timer) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		c.mu.Lock()
		parked := c.parked == head
		c.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never parked toward the head timer")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestScaledClockEarlierTimerWakesParkedDispatcher(t *testing.T) {
	c := Scaled(1000).(*scaledClock)
	var lateFired atomic.Bool
	late := c.AfterFunc(time.Hour, func() { lateFired.Store(true) }) // 3.6 s wall
	defer late.Stop()
	waitParked(t, c, late)

	due := time.Now().Add(5 * time.Millisecond)
	fired := make(chan time.Time, 1)
	c.AfterFunc(5*time.Second, func() { fired <- time.Now() }) // 5 ms wall
	select {
	case at := <-fired:
		if at.Before(due) {
			t.Errorf("earlier timer fired %v before its deadline", due.Sub(at))
		}
	case <-time.After(time.Second):
		t.Fatal("timer armed while the dispatcher was parked on a later deadline did not fire within 1s")
	}
	if lateFired.Load() {
		t.Error("later timer fired before the earlier one")
	}
}

func TestScaledClockDispatcherExitsWhenOnlyTimerStops(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := Scaled(1000).(*scaledClock)
	timer := c.AfterFunc(time.Hour, func() { t.Error("stopped timer fired") })
	waitParked(t, c, timer)
	if !timer.Stop() {
		t.Fatal("Stop() = false, want true for a pending timer")
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after stopping the only timer, want <= baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestScaledClockSleepNeverReturnsEarly(t *testing.T) {
	c := Scaled(1000).(*scaledClock)
	// Modeled durations straddling the spin window: the shortest spin,
	// the longer ones park on the timer wheel.
	for _, d := range []time.Duration{
		10 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond,
		500 * time.Millisecond, 2 * time.Second, 5 * time.Second,
	} {
		wall := c.toWall(d)
		for i := 0; i < 20; i++ {
			start := time.Now()
			c.Sleep(d)
			if elapsed := time.Since(start); elapsed < wall {
				t.Fatalf("Sleep(%v) returned after %v wall, want >= %v", d, elapsed, wall)
			}
		}
	}
}

// TestScaledClockPreciseWhenBusy pins the dispatcher's wake-up under
// load. Processors busy running goroutines check runtime timers on
// every schedule but poll the network only when their run queues are
// empty, so an alarm that only a netpoll event can end would be ~10 ms
// late here. Four yielding CPU loops per P keep the queues from
// draining.
func TestScaledClockPreciseWhenBusy(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < 1000; j++ {
					x += j * j
				}
				runtime.Gosched()
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	c := Scaled(1000)
	const wall = 500 * time.Microsecond
	late := make([]time.Duration, 0, 41)
	for i := 0; i < cap(late); i++ {
		due := time.Now().Add(wall)
		fired := make(chan time.Time, 1)
		c.AfterFunc(500*time.Millisecond, func() { fired <- time.Now() })
		late = append(late, (<-fired).Sub(due))
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if p50 := late[len(late)/2]; p50 > 200*time.Microsecond {
		t.Errorf("p50 lateness of a %v-wall AfterFunc with every P busy = %v, want < 200µs (max %v)",
			wall, p50, late[len(late)-1])
	}
}
