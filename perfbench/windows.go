package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tick is one once-a-second sample taken during a closed loop.
type tick struct {
	at               time.Time
	queries, correct int64
	rt               *runtimeSnapshot
}

// sampledClosedLoop runs the closed loop for d while sampling the
// generator's counters and the deployment's CPU once a second.
func (r *run) sampledClosedLoop(d time.Duration) (*phaseResult, []tick, error) {
	sample := func() (tick, error) {
		rt, err := r.runtime()
		return tick{at: time.Now(), queries: r.g.answered.Load(), correct: r.g.correct.Load(), rt: rt}, err
	}
	t0, err := sample()
	if err != nil {
		return nil, nil, err
	}
	ticks := []tick{t0}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				done <- nil
				return
			case <-tk.C:
				t, err := sample()
				if err != nil {
					done <- err
					return
				}
				ticks = append(ticks, t)
			}
		}
	}()
	p := r.g.closedLoop(d, 0, true)
	close(stop)
	if err := <-done; err != nil {
		return nil, nil, err
	}
	last, err := sample()
	if err != nil {
		return nil, nil, err
	}
	// A trailing sliver shorter than half a window is folded into the
	// last full one.
	if n := len(ticks); n > 1 && last.at.Sub(ticks[n-1].at) < time.Second/2 {
		ticks = ticks[:n-1]
	}
	return p, append(ticks, last), nil
}

// Wall-clock figures are corrected for host steal: on a virtual machine
// the hypervisor can withhold CPU from the whole deployment for part of
// a window, which slows everything in it by the same share. Each
// window's throughput is divided, and each window's latency multiplied,
// by (1 - steal share of the window), and the run reports the median
// over windows. Without steal accounting the correction is 1.

// closedWindows returns the median over the sampled windows of the
// steal-corrected correct-query throughput and of the deployment CPU per
// query.
func closedWindows(ticks []tick, st *stealClock) (qps, cpuMS float64) {
	var rates, cpus []float64
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		if n := b.queries - a.queries; n > 0 {
			rate := float64(b.correct-a.correct) / b.at.Sub(a.at).Seconds()
			rates = append(rates, rate/(1-st.between(a.at, b.at)))
			cpus = append(cpus, float64(b.rt.CPUNS-a.rt.CPUNS)/1e6/float64(n))
		}
	}
	return median(rates), median(cpus)
}

// openWindowSize is how many consecutive open-loop queries (in send
// order) make one window.
const openWindowSize = 200

// openWindows returns the medians over windows of openWindowSize
// consecutive queries of each window's steal-corrected p50 and p99
// latency and p50 time to first row.
func openWindows(p *phaseResult, st *stealClock) (p50, p99, first float64) {
	var qs []outcome
	for _, o := range p.outcomes {
		if !o.write {
			qs = append(qs, o)
		}
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i].sched.Before(qs[j].sched) })
	var p50s, p99s, firsts []float64
	for start := 0; start+openWindowSize/2 <= len(qs); start += openWindowSize {
		w := &phaseResult{outcomes: qs[start:min(start+openWindowSize, len(qs))]}
		lat, fr := latencies(w)
		if len(lat) == 0 {
			continue
		}
		end := w.outcomes[0].sched
		for _, o := range w.outcomes {
			if t := o.sched.Add(o.latency); t.After(end) {
				end = t
			}
		}
		keep := 1 - st.between(w.outcomes[0].sched, end)
		p50s = append(p50s, keep*quantile(lat, 0.50))
		p99s = append(p99s, keep*quantile(lat, 0.99))
		if len(fr) > 0 {
			firsts = append(firsts, keep*quantile(fr, 0.50))
		}
	}
	return median(p50s), median(p99s), median(firsts)
}

// stealClock samples the host's cumulative CPU steal time (the time
// this machine's virtual CPUs were ready to run but the hypervisor ran
// something else) so windows disturbed from outside can be recognised.
// Without /proc/stat it reports no steal.
type stealClock struct {
	mu      sync.Mutex
	at      []time.Time
	ticks   []float64
	ncpu    float64
	stop    chan struct{}
	stopped chan struct{}
}

func startStealClock() *stealClock {
	c := &stealClock{ncpu: float64(runtime.NumCPU()), stop: make(chan struct{}), stopped: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.stopped)
		tk := time.NewTicker(100 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tk.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) close() {
	close(c.stop)
	<-c.stopped
}

func (c *stealClock) sample() {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return
	}
	steal, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.at = append(c.at, time.Now())
	c.ticks = append(c.ticks, steal)
	c.mu.Unlock()
}

// value interpolates the cumulative steal ticks at t.
func (c *stealClock) value(t time.Time) float64 {
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	switch {
	case i == 0:
		return c.ticks[0]
	case i == len(c.at):
		return c.ticks[len(c.ticks)-1]
	}
	a, b := c.at[i-1], c.at[i]
	frac := float64(t.Sub(a)) / float64(b.Sub(a))
	return c.ticks[i-1] + frac*(c.ticks[i]-c.ticks[i-1])
}

// between returns the share of CPU time stolen in [a, b], at most 0.9.
func (c *stealClock) between(a, b time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.at) < 2 || !b.After(a) {
		return 0
	}
	// /proc/stat counts in USER_HZ (100 per second) per CPU.
	return min(0.9, (c.value(b)-c.value(a))/(b.Sub(a).Seconds()*100*c.ncpu))
}
