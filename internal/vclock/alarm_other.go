//go:build !linux

package vclock

import "time"

// spinThreshold is the wall-time window before a deadline through which
// the scaled clock's dispatcher spins instead of parking. Without a
// precise kernel timer the dispatcher parks on a runtime timer, which
// routinely wakes a millisecond or more late on a loaded host; at high
// scale factors that lateness would inflate modeled durations by whole
// seconds, so the window must cover it.
const spinThreshold = 2 * time.Millisecond

func newAlarm() alarm { return newTimerAlarm() }
