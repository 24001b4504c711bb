package main

import (
	"syscall"
	"time"
)

// The benchmark times each phase on two clocks: the wall clock, and the
// CPU time of the process (user and system, summed over its threads). The
// end-to-end metrics use CPU time: a virtual host's steal time and the
// waits its other tenants cause do not count in it, so it repeats from run
// to run where the wall clock, on a shared host, does not.

// stamp is a point on both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// span is an interval on both clocks.
type span struct{ wall, cpu time.Duration }

// since returns the interval from s to now.
func (s stamp) since() span {
	t := now()
	return span{t.wall.Sub(s.wall), t.cpu - s.cpu}
}

func (a span) plus(b span) span { return span{a.wall + b.wall, a.cpu + b.cpu} }

// cpuTime is the CPU time the process has used since it started.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
