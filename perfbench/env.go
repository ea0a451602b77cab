package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is recorded with every result so a noisy pair of runs can be
// traced to the machine rather than the program.
type environment struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadBefore string  `json:"loadavg_before"`
	LoadAfter  string  `json:"loadavg_after"`
	StealPct   float64 `json:"cpu_steal_pct"` // hypervisor steal during the run
	Fsync      string  `json:"fsync"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	SCCs       int     `json:"nontrivial_sccs"`
	LargestSCC int     `json:"largest_scc"`
	StreamOps  int     `json:"stream_updates,omitempty"`
}

func captureEnv() environment {
	return environment{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LoadBefore: loadAvg(),
	}
}

// cpuTicks returns the steal and total ticks of the machine's CPUs.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64) // a malformed field counts as 0
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// statusMiB reads a memory field of /proc/<pid>/status ("VmHWM", the peak
// resident set, or "VmRSS", the current one) in MiB; pid 0 means this
// process.
func statusMiB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// rssSampler reads a process's resident set every few milliseconds while
// the timed loop runs. Its median is steadier than the peak, which depends
// on where garbage collections happen to fall.
type rssSampler struct {
	stop, done chan struct{}
	mib        sample
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := statusMiB(pid, "VmRSS"); err == nil {
				s.mib = append(s.mib, v)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median resident set in MiB.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	<-s.done
	if len(s.mib) == 0 {
		return 0, fmt.Errorf("no resident-set samples")
	}
	return s.mib.median(), nil
}

// cpuTime returns user+system CPU time of a process (pid 0: this process).
func cpuTime(pid int) (time.Duration, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}
