package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func schedAffinity(trap uintptr, set *cpuSet) error {
	if _, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set))); errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU makes the benchmark run on a single CPU: when the process
// may use more than one, it restricts the calling thread to the first of
// them and re-executes the benchmark from that thread, so every thread of
// the new process and every child it starts inherits the one-CPU mask.
// It returns only when the process already runs on one CPU.
//
// remote_tx uses it: its client and its pmtestd child hand each section
// back and forth, and on one CPU each hand-off is a local wake-up instead
// of one that must first wake the other, idle, virtual CPU, whose delay
// is the host's, not the transport's.
func pinToOneCPU() error {
	runtime.LockOSThread() // the mask and the exec must come from one thread
	var set cpuSet
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &set); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	first, n := -1, 0
	for i := 0; i < len(set)*64; i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if n <= 1 {
		runtime.UnlockOSThread()
		return nil
	}
	if os.Getenv(pinnedEnv) != "" {
		return fmt.Errorf("still on %d CPUs after pinning", n)
	}
	one := cpuSet{}
	one[first/64] = 1 << (first % 64)
	if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"=1"))
}

// pinnedEnv marks the re-executed benchmark, so a mask that did not take
// fails the run instead of re-executing it forever.
const pinnedEnv = "PERFBENCH_PINNED"
