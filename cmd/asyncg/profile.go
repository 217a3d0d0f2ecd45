package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// startProfiles starts a CPU profile into cpuFile and a runtime
// execution trace into traceFile, and arranges an allocation profile
// into memFile; an empty name turns that output off. The returned stop
// ends the CPU profile and the execution trace and writes the
// allocation profile; call it once, when the work to profile is done.
func startProfiles(cpuFile, memFile, traceFile string) (stop func() error, err error) {
	cpu, err := startFile(cpuFile, pprof.StartCPUProfile)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	exec, err := startFile(traceFile, trace.Start)
	if err != nil {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		return nil, fmt.Errorf("execution trace: %w", err)
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if exec != nil {
			trace.Stop()
			if err := exec.Close(); err != nil {
				return err
			}
		}
		if memFile == "" {
			return nil
		}
		f, err := os.Create(memFile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the in-use figures of the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("memory profile: %w", err)
		}
		return f.Close()
	}, nil
}

// startFile creates name and starts a recording into it; it returns a
// nil file when name is empty.
func startFile(name string, start func(io.Writer) error) (*os.File, error) {
	if name == "" {
		return nil, nil
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	if err := start(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
