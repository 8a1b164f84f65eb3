package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the CPU time, user and system, that every thread of
// this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU returns the CPU time the calling OS thread has used so far.
// Callers lock their goroutine to its thread for the interval measured.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error()) // cannot fail for this clock
	}
	return time.Duration(ts.Nano())
}
