package vclock

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// spinThreshold is the wall-time window before a deadline through which
// the scaled clock's dispatcher spins instead of parking. On Linux the
// dispatcher parks on a timerfdAlarm, which is as precise as the kernel
// can wake a thread; the spin covers only that wake-up latency. On a
// 2-vCPU virtual machine a thread blocked on a timerfd wakes about
// 80 µs late at the median and 150 µs at the 99th percentile. Measured
// there with the perfbench tenant-mix sleeps at scale 2000, the p99
// Sleep overshoot was 75-140 µs with a 50 µs window (0.15-0.3 s of
// modeled time), up to 56 µs with 100 µs, and under 35 µs with 150 µs.
// A wider window buys no more precision and costs the processor time
// the serving path needs: every psched completion, batch window and
// reaper tick is a deadline, and at high scale factors one is nearly
// always due within a couple of milliseconds.
const spinThreshold = 150 * time.Microsecond

// newAlarm returns a timerfdAlarm, or the portable runtime-timer alarm
// if the kernel refuses a timerfd (file descriptors exhausted).
func newAlarm() alarm {
	if a, err := newTimerfdAlarm(); err == nil {
		return a
	}
	return newTimerAlarm()
}

// timerfdAlarm parks the dispatcher in a Read on a CLOCK_MONOTONIC
// timerfd that also carries a read deadline at the same instant. Each
// half covers the other's blind spot:
//
//   - The timerfd is a kernel high-resolution timer registered with the
//     Go netpoller. It wakes an idle process within microseconds; the
//     runtime timer alone would not, because an idle runtime sleeps in
//     the netpoller with millisecond granularity.
//   - The read deadline is a runtime timer. Busy Ps check runtime timers
//     on every schedule but poll the network only when their run queues
//     are empty (otherwise sysmon does, every 10 ms), so under load the
//     deadline, not the timerfd, is what wakes the dispatcher promptly.
//
// The read goes through the netpoller, so the parked dispatcher holds
// neither a P nor a thread. A poke is a read deadline in the past: it
// needs no pipe or channel, and one that lands before the dispatcher
// reaches Read still makes that Read return at once.
type timerfdAlarm struct {
	f   *os.File
	fd  uintptr // f's descriptor; f.Fd would switch it to blocking mode
	at  time.Time
	buf [8]byte
}

const clockMonotonic = 1 // CLOCK_MONOTONIC

func newTimerfdAlarm() (*timerfdAlarm, error) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	// A non-blocking descriptor makes NewFile register it with the
	// netpoller; only then does it accept read deadlines.
	f := os.NewFile(fd, "vclock-timerfd")
	if err := f.SetReadDeadline(time.Time{}); err != nil {
		_ = f.Close() // nothing was read or written
		return nil, err
	}
	return &timerfdAlarm{f: f, fd: fd}, nil
}

// arm and poke drop SetReadDeadline's error: it fails only on a closed
// file, and the file is closed only once the alarm is unreachable.
func (a *timerfdAlarm) arm(at time.Time) {
	a.at = at
	_ = a.f.SetReadDeadline(at)
}

func (a *timerfdAlarm) wait() {
	d := time.Until(a.at)
	if d <= 0 {
		return
	}
	// Relative arming replaces any earlier setting and discards its
	// unread expirations. Should it fail, the read deadline alone still
	// ends the wait.
	var spec struct{ interval, value syscall.Timespec }
	spec.value = syscall.NsecToTimespec(int64(d))
	_, _, _ = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	// The read ends with an expiration count, the deadline's error or a
	// poke's; the dispatcher re-reads its heap after any of them.
	_, _ = a.f.Read(a.buf[:])
}

var longAgo = time.Unix(1, 0)

func (a *timerfdAlarm) poke() { _ = a.f.SetReadDeadline(longAgo) }
