package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command name holds a space and a ')': fields are counted from
	// the last ')'. utime = 250 ticks, stime = 50 ticks.
	stat := "4242 (bp serv) d) S 1 4242 4242 0 -1 4194560 1200 0 0 0 250 50 0 0 20 0 7 0 12345 1000000 500 18446744073709551615\n"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 bpservd S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 x 50"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbpservd\nVmPeak:\t  800000 kB\nVmHWM:\t   30316 kB\nVmRSS:\t   29000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(30316 << 10); got != want {
		t.Errorf("VmHWM = %d bytes, want %d", got, want)
	}
	for _, bad := range []string{"Name:\tx\nVmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted malformed status", bad)
		}
	}
}

func TestProcSelf(t *testing.T) {
	// Burn a little CPU so the tick counter has something to show.
	deadline := time.Now().Add(50 * time.Millisecond)
	for x := 0; time.Now().Before(deadline); x++ {
		_ = strings.Repeat("x", x%64)
	}
	c := cpuMeter{pids: []int{os.Getpid()}}
	if err := c.start(); err != nil {
		t.Fatal(err)
	}
	used, err := c.since()
	if err != nil || len(used) != 1 || used[0] < 0 {
		t.Fatalf("cpu since start = %v, %v", used, err)
	}
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu <= 0 {
		t.Errorf("own cpu time = %v, %v; want > 0", cpu, err)
	}
	if rss, err := procPeakRSSMB(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("own peak RSS = %g MB, %v; want > 0", rss, err)
	}
}
