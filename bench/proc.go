package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// tickHz is the unit of utime/stime in /proc/<pid>/stat. Linux has fixed
// USER_HZ at 100 on every architecture Go runs on.
const tickHz = 100

// parseStatCPU returns utime+stime, in clock ticks, from the content of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After the command: state is field 3, utime field 14, stime field 15.
	fields := strings.Fields(stat[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusField returns the integer value of one "Name:\t123 kB" line
// of /proc/<pid>/status.
func parseStatusField(status, name string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, name+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", name)
}

// cpuTicks reads a process's utime+stime.
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// peakRSSKB reads a process's VmHWM.
func peakRSSKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusField(string(data), "VmHWM")
}

// ctxSwitches sums voluntary and involuntary context switches over a
// process's threads (the counters in /proc/<pid>/status are the main
// thread's alone).
func ctxSwitches(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		for _, name := range []string{"voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"} {
			n, err := parseStatusField(string(data), name)
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}
