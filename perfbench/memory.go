package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// heldBytes is the memory the Go runtime holds from the operating
// system: everything it has mapped minus what it has returned. It is
// the process's own view of its resident footprint.
func heldBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU is the CPU time of all the process's threads
// (CLOCK_PROCESS_CPUTIME_ID). On a virtual machine the guest kernel
// accounts the time the hypervisor gave to other guests apart, so this
// clock leaves it out, where wall time does not.
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// settle returns freed memory to the operating system, so a peak taken
// afterwards reflects what the next operation needs rather than what
// earlier ones left behind.
func settle() { debug.FreeOSMemory() }

// peakSampler tracks the highest heldBytes seen since its last reset,
// sampling every period.
type peakSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const samplePeriod = 5 * time.Millisecond

func startPeakSampler() *peakSampler {
	s := &peakSampler{stop: make(chan struct{})}
	s.reset()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *peakSampler) observe() {
	v := heldBytes()
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (s *peakSampler) reset() { s.peak.Store(heldBytes()) }

// take returns the peak since the last reset, in MB.
func (s *peakSampler) take() float64 {
	s.observe()
	return float64(s.peak.Load()) / (1 << 20)
}

func (s *peakSampler) close() {
	close(s.stop)
	s.wg.Wait()
}
