package vclock

import (
	"os"
	"runtime"
	"testing"
	"time"
)

func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	return len(fds)
}

// parkOnce makes c's dispatcher park once, then lets it exit.
func parkOnce(t *testing.T, c *scaledClock) {
	t.Helper()
	timer := c.AfterFunc(time.Hour, func() {})
	waitParked(t, c, timer)
	timer.Stop()
}

func TestScaledClockAlarmIsOneTimerfdPerClock(t *testing.T) {
	before := openFDs(t)
	c := Scaled(1000).(*scaledClock)
	for i := 0; i < 100; i++ {
		parkOnce(t, c)
	}
	if _, ok := c.alarm.(*timerfdAlarm); !ok {
		t.Fatalf("alarm is %T, want *timerfdAlarm", c.alarm)
	}
	if n := openFDs(t); n > before+1 {
		t.Errorf("open descriptors grew from %d to %d for one clock parking 100 times, want at most one more", before, n)
	}
	runtime.KeepAlive(c)
}

func TestScaledClockReleasesAlarmWhenUnreachable(t *testing.T) {
	before := openFDs(t)
	for i := 0; i < 2000; i++ {
		parkOnce(t, Scaled(1000).(*scaledClock))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := openFDs(t)
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("open descriptors grew from %d to %d after dropping 2000 parked clocks", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
