package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe times two fixed loops that call no repository code. A change
// in their times between two sets of runs means the host changed, not
// the program: the CPU loop sees a slower or shared core, the memory
// loop sees other tenants' cache and memory traffic.
type hostProbe struct {
	mem []uint64 // mapped outside the Go heap, so heap metrics ignore it
	cpu [1 << 13]uint64
}

// memProbeBytes exceeds the probe's fair share of a shared last-level
// cache; memProbeSteps dependent loads take a few milliseconds.
const (
	memProbeBytes = 64 << 20
	memProbeSteps = 1 << 15
)

func newHostProbe() (*hostProbe, error) {
	raw, err := syscall.Mmap(-1, 0, memProbeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	mem := unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), len(raw)/8)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range mem {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		mem[i] = x
	}
	return &hostProbe{mem: mem}, nil
}

// run returns the CPU loop's and the memory loop's times in
// milliseconds.
func (p *hostProbe) run() (cpuMs, memMs float64) {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.cpu[x&(uint64(len(p.cpu))-1)] += x
	}
	mid := time.Now()
	mask := uint64(len(p.mem) - 1)
	idx := x & mask
	for i := 0; i < memProbeSteps; i++ {
		idx = (p.mem[idx] + idx) & mask // each load's address depends on the last
	}
	p.cpu[0] += idx
	return ms(mid.Sub(start)), ms(time.Since(mid))
}
