package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// rssSampler reads the process's resident set every few milliseconds and
// keeps the largest value since its last reset. Unlike the kernel's
// high-water mark it can be reset, so each round reports its own peak.
type rssSampler struct {
	peak atomic.Int64 // bytes
	quit chan struct{}
	wg   sync.WaitGroup
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v := residentBytes()
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset returns the peak in MB since the last reset and starts a new one
// from the current resident set.
func (s *rssSampler) reset() float64 {
	s.sample()
	peak := s.peak.Swap(residentBytes())
	return float64(peak) / (1 << 20)
}

func (s *rssSampler) stop() {
	close(s.quit)
	s.wg.Wait()
}

// residentBytes is the process's resident set, from /proc/self/statm.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return pages * int64(os.Getpagesize())
}
