package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of the CPU times in /proc/<pid>/stat: USER_HZ,
// which Linux fixes at 100 for user space.
const clockTick = 10 * time.Millisecond

// parseStatCPU returns user plus system CPU time from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// hold spaces or parentheses itself, so fields are counted from the last
// ')': utime and stime are fields 14 and 15 of the line.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", stat)
	}
	fields := strings.Fields(stat[i+1:])
	// fields[0] is field 3 (state), so field n is fields[n-3].
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(fields))
	}
	var ticks uint64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: cpu time %q: %w", f, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// parseVmHWM returns the peak resident set size in bytes from the
// contents of /proc/<pid>/status (the "VmHWM:  1234 kB" line).
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM %q: %w", f[0], err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPU reads a process's CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procPeakRSSMB reads a process's peak resident set size in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	n, err := parseVmHWM(string(b))
	return float64(n) / (1 << 20), err
}

// cpuMeter snapshots the CPU time of a set of processes.
type cpuMeter struct {
	pids []int
	at   []time.Duration
}

func (c *cpuMeter) mark() ([]time.Duration, error) {
	out := make([]time.Duration, len(c.pids))
	for i, pid := range c.pids {
		d, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// start records the CPU baseline.
func (c *cpuMeter) start() (err error) {
	c.at, err = c.mark()
	return err
}

// since returns each process's CPU time used since start.
func (c *cpuMeter) since() ([]time.Duration, error) {
	now, err := c.mark()
	if err != nil {
		return nil, err
	}
	for i := range now {
		now[i] -= c.at[i]
	}
	return now, nil
}
