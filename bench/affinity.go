package bench

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The benchmark splits the machine: the driver's threads are pinned to the
// last CPU and the server's to all the others. Left to the kernel, a server
// thread woken by the driver's write tends to land on the driver's own CPU
// and the two then share it for a scheduler slice, which shows up as
// millisecond latency and lateness spikes that belong to neither program.

func setAffinity(tid int, mask uint64) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if e != 0 {
		return e
	}
	return nil
}

func driverMask() uint64 { return 1 << (runtime.NumCPU() - 1) }
func serverMask() uint64 { return driverMask() - 1 }

// PinDriver pins every thread of this process to the driver's CPU; threads
// created later inherit it. It reports whether the split is in force: on a
// one-CPU machine, or where the kernel refuses, everything floats.
func PinDriver() bool {
	if n := runtime.NumCPU(); n < 2 || n > 64 {
		return false
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return false
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil || setAffinity(tid, driverMask()) != nil {
			return false
		}
	}
	return true
}

// startPinned starts the child on the server's CPUs: the mask is inherited
// across fork, so this thread takes it for the duration of start.
func startPinned(start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, serverMask()); err != nil {
		return start() // not pinned ourselves either; run floating
	}
	defer setAffinity(0, driverMask())
	return start()
}
