package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the nearest-rank median of ds (sorted in place).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return ds[(len(ds)-1)/2]
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencyQuantile is quantile over served latencies plus failed
// attempts, which rank as slower than every served one: a quantile
// that lands on a failure reads as the whole window. An upper quantile
// of fewer than 100 requests (engine-chase's window holds about a dozen)
// is taken no higher than the second-slowest, so that at least one
// request lies beyond it and one stray slow request does not set it.
func latencyQuantile(served []time.Duration, failed int64, q float64, window time.Duration) time.Duration {
	total := int64(len(served)) + failed
	if total == 0 {
		return 0
	}
	i := int64(math.Ceil(q*float64(total))) - 1
	if total < 100 && total >= 2 {
		i = min(i, total-2)
	}
	if i >= int64(len(served)) {
		return window
	}
	slices.Sort(served)
	return served[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// vmHWM returns a process's peak resident set in MiB (pid 0 = self).
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times (100
// on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU returns another process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// After the command name: state is field 3, utime 14, stime 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealClock samples the machine's CPU tick counters while a window
// runs. On a shared virtual machine the hypervisor runs other guests on
// this machine's CPUs for a share of the time that swings from a few to
// half from minute to minute ("steal" in /proc/stat); wall times are
// scaled by (1 - steal share) over their own interval, so that a figure
// estimates the time on an unshared machine and runs stay comparable.
type stealClock struct {
	mu      sync.Mutex
	samples []tickSample
	quit    chan struct{}
	done    chan struct{}
}

type tickSample struct {
	t           time.Time
	steal, busy int64
}

// stealPeriod is the sampling period: /proc/stat counts 10 ms ticks.
const stealPeriod = 100 * time.Millisecond

func startStealClock() *stealClock {
	c := &stealClock{quit: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tk := time.NewTicker(stealPeriod)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				c.sample()
			case <-c.quit:
				return
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	t := readTicks()
	c.mu.Lock()
	c.samples = append(c.samples, t)
	c.mu.Unlock()
}

// stop ends sampling with a final sample.
func (c *stealClock) stop() {
	close(c.quit)
	<-c.done
	c.sample()
}

// share returns the steal share over the sampled interval covering
// [t0, t1]; call it after stop.
func (c *stealClock) share(t0, t1 time.Time) float64 {
	s := c.samples
	i := sort.Search(len(s), func(k int) bool { return s[k].t.After(t0) }) - 1
	j := sort.Search(len(s), func(k int) bool { return !s[k].t.Before(t1) })
	i = max(i, 0)
	j = min(j, len(s)-1)
	if j <= i {
		return 0
	}
	return stealShare(s[i], s[j])
}

// stealShare returns the share of busy CPU time stolen between two
// samples.
func stealShare(a, b tickSample) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// effective scales a wall interval by the CPU time the machine kept.
func (c *stealClock) effective(t0, t1 time.Time) time.Duration {
	return time.Duration(float64(t1.Sub(t0)) * (1 - c.share(t0, t1)))
}

// readTicks samples the machine-wide tick counts from /proc/stat:
// steal, the time the hypervisor ran other guests while this machine's
// CPUs had work, and busy, all time that was not idle (steal included).
func readTicks() tickSample {
	t := tickSample{t: time.Now()}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:min(len(f), 9)] {
		v, _ := strconv.ParseInt(s, 10, 64)
		if i != 3 && i != 4 {
			t.busy += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}
